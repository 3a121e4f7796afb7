"""Exception taxonomy for the isospec package.

Numerical experiments fail in ways a caller may want to distinguish
(bad input file vs. violated positivity vs. a spectral gap collapsing),
so every failure mode gets its own class under :class:`IsospecError`.
The classes under :class:`InputError` blame the input; every other
class is a numerical failure.  The command line exits 2 for the first
family and 3 for the second.
"""


class IsospecError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsospecError):
    """Base class for errors raised by bad inputs rather than the mathematics."""


class GridTooSmallError(InputError):
    """Torus grid dimensions or periods outside the supported range."""


class MeshParseError(InputError):
    """Unreadable or malformed OFF file (bad header, counts, or face records)."""


class MeshTopologyError(InputError):
    """Mesh is not a closed, connected, consistently oriented 2-manifold."""


class ExpressionError(InputError):
    """Field expression uses an unsupported construct."""


class DegenerateTriangleError(InputError):
    """A triangle's area is numerically zero relative to the mesh scale."""


class ModeCountError(InputError):
    """A mode count outside what the call can serve.

    Raised for a requested count outside [1, node count] or beyond the
    modes a spectrum holds, for a mesh field basis larger than its
    spectrum, and for a spectrum that may cut a degeneracy group where a
    closed window is needed.
    """


class InsufficientModesError(InputError):
    """Too few modes for the requested asymptotic estimate."""


class ConfigError(InputError):
    """Invalid experiment configuration."""


class SurfaceMismatchError(IsospecError):
    """Operands built over different surfaces were combined."""


class PositivityError(IsospecError):
    """A conformal factor fails strict positivity at some node."""

    def __init__(self, message, node_index):
        super().__init__(message)
        self.node_index = node_index


class NumericalBreakdownError(IsospecError):
    """A computed quantity failed a numerical invariant.

    Raised when an operator pair is not finite, symmetric, positive or of
    the surface's area; when an eigensolve breaks orthonormality, its
    residual bound or its ordering, exceeds the dense budget, or meets a
    singular bordered system; and when a perturbation, a correction or a
    probe result overflows.
    """


class SmallGapError(IsospecError):
    """A cross-group spectral gap fell below the division guard."""


class RankDeficientBasisError(IsospecError):
    """Field basis for the obstruction map is numerically rank deficient."""
