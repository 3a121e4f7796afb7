"""Spectral perturbation laboratory for Laplacians on closed surfaces.

Discretizes flat tori and triangle meshes, expands eigenvalues and
eigenvectors of conformally perturbed Laplacians to second order with a
perturbed inner product, and runs the experiments built on top of the
expansion: isospectral obstruction maps, convexity probes along metric
segments, and Weyl area fits.

The top level exports the names of the README example; everything else
is imported from its submodule.
"""

__version__ = "0.1.0"

from .assembly import assemble_base, conformal_operators
from .eigen import solve
from .perturb import compute_corrections
from .surface import (
    ConformalPerturbation,
    PerturbationSide,
    field_from_expression,
    make_torus,
)

__all__ = [
    "__version__",
    "make_torus",
    "field_from_expression",
    "assemble_base",
    "conformal_operators",
    "solve",
    "compute_corrections",
    "ConformalPerturbation",
    "PerturbationSide",
]
