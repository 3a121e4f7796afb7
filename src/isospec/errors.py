"""Exception taxonomy for the isospec package.

Numerical experiments fail in ways a caller may want to distinguish
(bad input file vs. violated positivity vs. a spectral gap collapsing),
so every failure mode gets its own class under :class:`IsospecError`.
"""


class IsospecError(Exception):
    """Base class for all errors raised by this package."""


class GridTooSmallError(IsospecError):
    """Torus grid dimensions below the supported minimum."""


class MeshParseError(IsospecError):
    """Malformed OFF file (bad header, counts, or face records)."""


class MeshTopologyError(IsospecError):
    """Mesh is not a closed, connected, consistently oriented 2-manifold."""


class ExpressionError(IsospecError):
    """Field expression uses an unsupported construct."""


class DegenerateTriangleError(IsospecError):
    """A triangle's area is numerically zero relative to the mesh scale."""


class SurfaceMismatchError(IsospecError):
    """Operands built over different surfaces were combined."""


class PositivityError(IsospecError):
    """A conformal factor fails strict positivity at some node."""

    def __init__(self, message, node_index):
        super().__init__(message)
        self.node_index = node_index


class NumericalBreakdownError(IsospecError):
    """The mass operator lost positivity; the eigensolve cannot proceed."""


class SmallGapError(IsospecError):
    """A cross-group spectral gap fell below the division guard."""


class ModeCountError(IsospecError):
    """Mismatched number of modes between spectral data and operators."""


class RankDeficientBasisError(IsospecError):
    """Field basis for the obstruction map is numerically rank deficient."""


class InsufficientModesError(IsospecError):
    """Too few modes for the requested asymptotic estimate."""


class ConfigError(IsospecError):
    """Invalid experiment configuration."""
