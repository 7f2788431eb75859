"""Exception types shared across the toolkit.

Everything raised on bad input data derives from ScriboError so the CLI
can map it to a data-error exit code. Contract violations by callers
(wrong shapes, bad arguments) raise plain ValueError.
"""
import json


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


def read_json(path, error: type[ScriboError]):
    """The parsed content of a JSON file; ``error`` naming the file if it
    cannot be read (missing, a directory) or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and an integer literal
        # longer than int() converts; RecursionError deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from exc
