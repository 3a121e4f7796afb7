"""Stiffness/mass assembly and conformal perturbation operators.

The base pair (K, M0) realizes the Laplacian of the unperturbed metric:
Delta0 = M0^-1 K, symmetric with respect to <u, v> = u^T M0 v.  Every K is
one weighted-edge sum, K = sum over edges (a, b) of w (e_a - e_b)(e_a - e_b)^T,
with cotangent weights on meshes and on the torus grid's right-triangle split.
A conformal perturbation enters twice: as a multiplier in front of Delta0
(the operator series H1, H2) and as a reweighting of the inner product (the
diagonal series G1, G2).  Both truncate at second order in t.

In two dimensions the stiffness matrix is conformally invariant, so the
exact perturbed problem at finite t only rescales the mass diagonal; this
gives a cheap ground-truth family for validating perturbative predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import (
    NumericalBreakdownError,
    PositivityError,
    SurfaceMismatchError,
)
from .surface import DiscreteSurface, PerturbationSide, SurfaceKind


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness operator K and diagonal mass M0 on a common node set.

    Attributes
    ----------
    surface : DiscreteSurface | None
        The surface the pair was assembled on; None for synthetic pairs.
    stiffness : scipy.sparse.csr_matrix
        Symmetric positive-semidefinite K; constants in its kernel for
        assembled pairs.
    mass : np.ndarray
        Strictly positive diagonal of M0 (lumped areas).
    """

    surface: DiscreteSurface | None
    stiffness: sparse.csr_matrix = field(repr=False)
    mass: np.ndarray = field(repr=False)

    @property
    def node_count(self):
        return self.mass.shape[0]

    @property
    def total_mass(self):
        return float(np.sum(self.mass))

    def apply_laplacian(self, v):
        """Apply Delta0 = M0^-1 K to a vector or a matrix of columns."""
        return ((self.stiffness @ v).T / self.mass).T

    # sums of finite areas may overflow to inf, which the mass check refuses
    @np.errstate(over="ignore", invalid="ignore")
    def validate(self):
        """Check finiteness, symmetry, kernel, and mass positivity invariants.

        Each check is written so that a NaN fails it.
        """
        K = self.stiffness
        if K.shape != (self.node_count, self.node_count):
            raise NumericalBreakdownError("stiffness shape does not match mass")
        if not (np.all(np.isfinite(K.data)) and np.all(np.isfinite(self.mass))):
            raise NumericalBreakdownError("stiffness or mass has non-finite entries")
        scale = np.abs(K).max()
        asym = np.abs(K - K.T).max()
        if not asym <= 1e-12 * max(scale, 1.0):
            raise NumericalBreakdownError(f"stiffness asymmetry {asym:.3e}")
        kernel_residual = np.abs(K @ np.ones(self.node_count)).max()
        if not kernel_residual <= 1e-10 * max(scale, 1.0):
            raise NumericalBreakdownError(
                f"stiffness does not annihilate constants: {kernel_residual:.3e}"
            )
        if not np.all(self.mass > 0.0):
            raise NumericalBreakdownError("mass diagonal has nonpositive entries")
        if self.surface is not None:
            area = self.surface.area
            if not abs(self.total_mass - area) <= 1e-10 * area:
                raise NumericalBreakdownError(
                    f"total mass {self.total_mass!r} != surface area {area!r}"
                )


@dataclass(frozen=True)
class PerturbationOperators:
    """First and second order operator/inner-product perturbation data.

    H1 and H2 act as a diagonal multiplier composed with Delta0; they are
    stored by their multiplier fields.  G1 and G2 are the diagonal
    corrections of the inner product: M_t = M0 (I + t G1 + t^2 G2 + O(t^3)).

    None of H1, H2 is symmetric with respect to M0 in general; the family
    H(t) is self-adjoint only with respect to the moving inner product M_t.
    """

    pair: OperatorPair
    h1_multiplier: np.ndarray = field(repr=False)
    h2_multiplier: np.ndarray = field(repr=False)
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)

    def apply_h1(self, v):
        """H1 v = h1_multiplier * (Delta0 v); works on column stacks."""
        return (self.h1_multiplier * self.pair.apply_laplacian(v).T).T

    def apply_h2(self, v):
        return (self.h2_multiplier * self.pair.apply_laplacian(v).T).T

    def apply_h1_adjoint(self, v):
        """M0-adjoint of H1: Delta0 (h1_multiplier * v)."""
        return self.pair.apply_laplacian((self.h1_multiplier * v.T).T)


def assemble_base(surface):
    """Assemble (K, M0) for the unperturbed metric.

    K = sum of w (e_a - e_b)(e_a - e_b)^T over the surface's edge sets
    (a, b, w).  Meshes give cotangent weights and a barycentric lumped mass;
    tori give the 5-point weights cell/h^2 and a uniform mass.  Those are the
    cotangent weights of the grid cut into right triangles: both angles facing
    a grid edge have cot hy/hx (or hx/hy) = cell/h^2, and both facing a
    diagonal are right angles, so diagonals weigh 0.
    """
    if surface.kind is SurfaceKind.TORUS_GRID:
        edges, mass = _torus_edges(surface)
    else:
        edges, mass = _mesh_edges(surface)
    rows, cols, vals = [], [], []
    for a, b, w in edges:
        rows.extend((a, b, a, b))
        cols.extend((b, a, a, b))
        vals.extend((-w, -w, w, w))
    n = surface.node_count
    stiffness = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    pair = OperatorPair(surface=surface, stiffness=stiffness, mass=mass)
    pair.validate()
    return pair


def _torus_edges(surface):
    """East and north edge sets of the periodic grid, and its mass."""
    nx, ny = surface.nx, surface.ny
    hx = surface.lx / nx
    hy = surface.ly / ny
    node = np.arange(surface.node_count)
    ix, iy = np.divmod(node, ny)
    mass = np.full(node.size, surface.cell_area)
    # cell * (1/h^2) rounds as the stencil's cell * (-1/h^2); cell/h^2 does not
    east = (node, (ix + 1) % nx * ny + iy, mass * (1.0 / hx**2))
    north = (node, ix * ny + (iy + 1) % ny, mass * (1.0 / hy**2))
    return [east, north], mass


# coordinates far from unit scale over- or underflow the areas into a
# non-finite K or mass, which validate() rejects; numpy stays silent
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _mesh_edges(surface):
    """Cotangent edge sets of a triangle mesh, and its lumped mass."""
    v = surface.vertices
    f = surface.faces
    areas = surface.triangle_areas
    double_area = 2.0 * areas
    # edge vectors opposite each corner
    e0 = v[f[:, 2]] - v[f[:, 1]]
    e1 = v[f[:, 0]] - v[f[:, 2]]
    e2 = v[f[:, 1]] - v[f[:, 0]]
    # cot(angle at corner i) = <e_j, e_k> / |e_j x e_k|, against opposite edge
    cot0 = np.einsum("ij,ij->i", -e1, e2) / double_area
    cot1 = np.einsum("ij,ij->i", -e2, e0) / double_area
    cot2 = np.einsum("ij,ij->i", -e0, e1) / double_area

    mass = np.zeros(surface.node_count)
    np.add.at(mass, f[:, 0], areas / 3.0)
    np.add.at(mass, f[:, 1], areas / 3.0)
    np.add.at(mass, f[:, 2], areas / 3.0)
    edges = [
        (f[:, 1], f[:, 2], 0.5 * cot0),
        (f[:, 2], f[:, 0], 0.5 * cot1),
        (f[:, 0], f[:, 1], 0.5 * cot2),
    ]
    return edges, mass


def conformal_operators(pair, pert):
    """Expand a conformal perturbation into (H1, H2, G1, G2).

    A factor c(t) = 1 + t c1 + t^2 c2 on the inverse metric gives
    H1 = C1 Delta0, H2 = C2 Delta0.  The 2D volume form scales as 1/c(t),
    so G1 = -C1 and G2 = C1^2 - C2.

    Inverse-metric side: (c1, c2) = (f1, f2).  Metric side, factor 1 + t f1
    on the metric: c(t) = 1/(1 + t f1), so (c1, c2) = (-f1, f1^2), which
    gives H1 = -F1 Delta0, H2 = F1^2 Delta0, G1 = F1, G2 = 0.

    Finite fields whose squares overflow raise NumericalBreakdownError.
    """
    if pair.surface is None or pert.surface is not pair.surface:
        raise SurfaceMismatchError(
            "perturbation and operator pair live on different surfaces"
        )
    f1 = pert.f1.values
    with np.errstate(over="ignore", invalid="ignore"):
        if pert.side is PerturbationSide.INVERSE_METRIC:
            c1, c2 = f1, pert.f2_values()
        else:
            c1, c2 = -f1, f1 * f1
        ops = PerturbationOperators(
            pair=pair, h1_multiplier=c1, h2_multiplier=c2, g1=-c1, g2=c1 * c1 - c2
        )
    for name in ("h1_multiplier", "h2_multiplier", "g1", "g2"):
        if not np.all(np.isfinite(getattr(ops, name))):
            raise NumericalBreakdownError(
                f"perturbation {name} is not finite: the field overflows when squared"
            )
    return ops


def conformal_factor(pert, t):
    """Inverse-metric conformal factor c(t) at every node; checks positivity."""
    f1 = pert.f1.values
    if pert.side is PerturbationSide.INVERSE_METRIC:
        c = 1.0 + t * f1 + t * t * pert.f2_values()
    else:
        denom = 1.0 + t * f1
        check_positive(denom, f"metric factor 1 + t*f1 at t={t!r}")
        c = 1.0 / denom
    check_positive(c, f"conformal factor at t={t!r}")
    return c


def check_positive(values, label):
    """Raise PositivityError naming the first node not > 0, NaN included."""
    bad = ~(values > 0.0)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise PositivityError(f"{label} nonpositive at node {node}", node_index=node)


def exact_perturbed_pair(pair, pert, t):
    """Exact operator family at finite t.

    The conformal_pair of the inverse-metric conformal factor c(t).
    Returns the input pair itself at t = 0.
    """
    if pair.surface is None or pert.surface is not pair.surface:
        raise SurfaceMismatchError(
            "perturbation and operator pair live on different surfaces"
        )
    if t == 0.0:
        return pair
    return conformal_pair(pair, conformal_factor(pert, t))


def conformal_pair(pair, c):
    """Exact pair for the inverse-metric conformal factor c > 0.

    K is conformally invariant in 2D, so only the mass diagonal changes:
    M = M0 diag(1/c).  Callers check the positivity of c.
    """
    return OperatorPair(
        surface=pair.surface, stiffness=pair.stiffness, mass=pair.mass / c
    )
