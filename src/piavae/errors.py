"""Exception types shared across the package."""


class PiaVaeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PiaVaeError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyDatasetError(PiaVaeError):
    """No users or items survived ingestion filters."""


class SplitError(PiaVaeError):
    """Requested split is impossible for the given matrix, or a split
    lacks the users an operation needs."""


class CorruptFileError(PiaVaeError):
    """A binary file's length disagrees with its header, or the file holds
    a value its writer never writes; carries the file and the byte offset
    where the fault shows."""

    def __init__(self, path, offset: int, message: str):
        super().__init__(f"{path}: {message} (byte {offset})")
        self.path = str(path)
        self.offset = offset


class MatrixError(PiaVaeError):
    """CSR arrays break an InteractionMatrix invariant."""


class ShapeError(PiaVaeError):
    """Array arguments do not match the expected layout, or two
    distributions or vectors have different dimensions."""


class NumericalError(PiaVaeError):
    """A computation gave a non-finite value or met a row with no positive."""

    def __init__(self, message: str, row_index: int | None = None):
        super().__init__(message)
        self.row_index = row_index


class MetricError(PiaVaeError):
    """A ranking metric was called with an empty holdout set."""
