"""Speech-to-text inference and corpus engineering toolkit.

Modules: textnorm (transcript normalization), corpus (dataset readers,
cleaning, splitting), features (WAV + log-mel front end), lm (ARPA
n-gram models), ctcdecoder (greedy and prefix beam search), net (the
separable-conv acoustic model with streaming and alphabet adaptation),
cli (the `scribo` command).
"""

from .ctcdecoder import (DecodeParams, Hypothesis, beam_decode, collapse, greedy_decode,
                         word_error_rate)
from .corpus import (CleaningReport, CorpusStats, DatasetItem, clean_corpus,
                     compute_stats, convert_audio, read_dataset, read_manifest,
                     split_dataset, write_dataset)
from .errors import (ArpaError, AudioFormatError, DatasetError, RuleFileError,
                     ScriboError, WeightError)
from .features import (AudioClip, FeatureConfig, load_wav, logmel, mel_filterbank,
                       normalize_features)
from .lm import LmScore, NgramModel, parse_arpa, prune_model, serialize_arpa
from .net import (BlockGroup, ConvSpec, LoadedModel, NetConfig, NetworkWeights,
                  adapt_alphabet, fold_batchnorm, forward, forward_streaming,
                  load_weights, param_count, quartznet15x5, random_weights,
                  receptive_field_frames, receptive_field_seconds, save_weights)
from .textnorm import (ALPHABETS, AlphabetSpec, NormRules, load_rules,
                       normalize_text, number_to_words, shipped_rules, transliterate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
