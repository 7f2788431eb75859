"""Exception types shared across the toolkit.

Everything raised on bad input data derives from ScriboError so the CLI
can map it to a data-error exit code. Contract violations by callers
(wrong shapes, bad arguments) raise plain ValueError.
"""


class ScriboError(Exception):
    """Base class for data and format errors."""


class RuleFileError(ScriboError):
    """Normalization rule file is malformed or violates the schema."""


class AudioFormatError(ScriboError):
    """Audio file cannot be decoded or does not match the required format."""


class DatasetError(ScriboError):
    """Dataset layout or manifest problem."""


class ArpaError(ScriboError):
    """ARPA language-model file is malformed or inconsistent."""


class WeightError(ScriboError):
    """Weight manifest/blob is missing tensors, mis-shaped or corrupt."""
