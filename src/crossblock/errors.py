"""Exception hierarchy for crossblock.

Validation problems (bad inputs, malformed files) and numerical failures
(rank deficiency, indefinite matrices) are kept on separate branches so
callers can map them to distinct exit codes.
"""


class CrossBlockError(Exception):
    """Base class for all crossblock errors."""


class ConstantColumn(CrossBlockError):
    """A column has (near-)zero sample standard deviation and cannot be standardized."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"column {label!r} is constant (sd below 1e-12)")


class ObservationMismatch(CrossBlockError):
    """Paired blocks do not have the same number of rows."""


class RankDeficient(CrossBlockError):
    """A within-block correlation matrix is rank deficient, so the adjusted
    cross-block matrix cannot be formed."""

    def __init__(self, block: str, eigenvalue: float, tolerance: float):
        self.block = block
        self.eigenvalue = eigenvalue
        self.tolerance = tolerance
        super().__init__(
            f"within-block correlation of {block!r} is rank deficient "
            f"(smallest eigenvalue {eigenvalue:.3e} below tolerance {tolerance:.3e})"
        )


class NotPositiveDefinite(CrossBlockError):
    """Matrix is not positive definite."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"matrix is not positive definite (eigenvalue {eigenvalue:.3e})")


class MethodMismatch(CrossBlockError):
    """Operation requires a model fitted with a different method."""


class ShapeMismatch(CrossBlockError):
    """Matrix arguments have incompatible shapes."""


class InfeasibleR2(CrossBlockError):
    """A requested population R-squared cannot be realized by the generator."""


class ResamplingError(CrossBlockError):
    """A resampling procedure could not produce a usable draw."""


class ParseError(CrossBlockError):
    """A CSV file could not be parsed."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        loc = ""
        if row is not None:
            loc = f" at row {row}" + (f", column {col}" if col is not None else "")
        super().__init__(message + loc)


class NonNumericCell(ParseError):
    """A body cell is empty or not a finite number."""


class RaggedRows(ParseError):
    """Rows do not all have the same number of fields."""


class EmptyFile(ParseError):
    """The file contains no data."""


class MissingSection(CrossBlockError):
    """The report does not contain the section required for this output."""


def unwrap(outcome):
    """Return ``outcome``, or raise it when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
