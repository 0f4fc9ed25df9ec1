"""Exception hierarchy shared across the package.

Everything raised on bad data or bad geometry derives from ModalignError so
callers (and the CLI) can map failures onto exit codes in one place.
"""


class ModalignError(Exception):
    """Base class for all validation and data errors raised by modalign."""


class ZeroVector(ModalignError):
    """A vector (or a matrix row) has an L2 norm too small to normalize."""


class DimensionMismatch(ModalignError):
    """Two operands disagree on embedding dimensionality."""


class EmptyKeys(ModalignError):
    """Top-k search was asked to rank an empty key set."""


class CountMismatch(ModalignError):
    """Record count and embedding row count disagree."""


class DuplicateId(ModalignError):
    """Two knowledge records share the same id."""


class MalformedRecord(ModalignError):
    """A JSONL line could not be parsed or failed field validation."""

    def __init__(self, line_number: int, problem: str, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {problem}")
        self.line_number, self.problem, self.path = line_number, problem, path


class UnknownSample(ModalignError):
    """A sample id has no paired description row in the knowledge base."""


class MissingCategory(ModalignError):
    """A category requested for anchor localization has no candidate rows."""


class NonPositiveTemperature(ModalignError):
    """Contrastive temperature must be strictly positive."""


class DegenerateBatch(ModalignError):
    """A training set (or batch) cannot supply any valid negative pairs."""


class NonFiniteParameter(ModalignError):
    """An adapter carries NaN or Inf parameters."""


class UnknownLabel(ModalignError):
    """A query is labeled with a category absent from the anchor set."""


class MissingRelevance(ModalignError):
    """A retrieval query has no relevant gallery items."""


class EmptyCenterSet(ModalignError):
    """Scoring was attempted against an anchor set with no categories."""


class InsufficientSamples(ModalignError):
    """Alignment diagnostics need >=2 modalities and >=2 samples per class."""


class StageError(ModalignError):
    """Wraps a failure inside a pipeline stage with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
