"""Reference implementations that only the tests call.

Perturbation theory outside the conformal family (dense synthetic
operators and the textbook fixed-inner-product formulas), the full-basis
divided sums the package replaced with one bordered solve per
degeneracy group, the Kronecker-sum 5-point stencil the package replaced
with its weighted-edge sum, and a replay of the elimination argument
behind the paper's rigidity statement.  They check the package against
the paper's identities and are not part of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse

from isospec.assembly import OperatorPair
from isospec.errors import IsospecError, NumericalBreakdownError, SmallGapError
from isospec.experiments import field_matrix_elements
from isospec.perturb import (
    GAP_GUARD,
    adapt_degenerate_basis,
    first_order,
    matrix_elements,
    second_order,
)


class SymmetryError(IsospecError):
    """An operator required to be symmetric (in the mass inner product) is not."""


class NotApplicableError(IsospecError):
    """Premises of the isospectrality induction do not hold for this input."""


@dataclass(frozen=True)
class GenericPerturbationOperators:
    """Dense synthetic H1/H2 with optional diagonal G terms.

    Same protocol as PerturbationOperators; used for perturbation theory
    outside the conformal family (e.g. textbook operator perturbations).
    """

    pair: OperatorPair
    h1: np.ndarray = field(repr=False)
    h2: np.ndarray | None = field(default=None, repr=False)
    g1: np.ndarray = field(default=None, repr=False)
    g2: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        n = self.pair.node_count
        if self.g1 is None:
            object.__setattr__(self, "g1", np.zeros(n))
        if self.g2 is None:
            object.__setattr__(self, "g2", np.zeros(n))

    def apply_h1(self, v):
        return self.h1 @ v

    def apply_h2(self, v):
        if self.h2 is None:
            return np.zeros_like(v)
        return self.h2 @ v

    def apply_h1_adjoint(self, v):
        m = self.pair.mass
        if v.ndim == 1:
            return (self.h1.T @ (m * v)) / m
        return (self.h1.T @ (m[:, None] * v)) / m[:, None]


def generic_operators(pair, h1, h2=None, g1=None, g2=None):
    """Wrap dense synthetic operators in the perturbation protocol."""
    h1 = np.asarray(h1, dtype=float)
    if h1.shape != (pair.node_count, pair.node_count):
        raise ValueError("h1 shape does not match the operator pair")
    if h2 is not None:
        h2 = np.asarray(h2, dtype=float)
    return GenericPerturbationOperators(pair=pair, h1=h1, h2=h2, g1=g1, g2=g2)


def five_point_stiffness(surface):
    """Torus stiffness as the Kronecker sum of periodic second differences,
    cell * (Dxx (x) I + I (x) Dyy), in the node order ix * ny + iy."""
    nx, ny = surface.nx, surface.ny
    hx = surface.lx / nx
    hy = surface.ly / ny

    def second_difference(n, h):
        main = np.full(n, 2.0 / h**2)
        off = np.full(n, -1.0 / h**2)
        mat = sparse.diags(
            [off, main, off], offsets=[-1, 0, 1], shape=(n, n), format="lil"
        )
        # periodic wraparound
        mat[0, n - 1] += -1.0 / h**2
        mat[n - 1, 0] += -1.0 / h**2
        return sparse.csr_matrix(mat)

    dx = second_difference(nx, hx)
    dy = second_difference(ny, hy)
    lap = sparse.kron(dx, sparse.identity(ny), format="csr") + sparse.kron(
        sparse.identity(nx), dy, format="csr"
    )
    return sparse.csr_matrix(surface.cell_area * lap)


def _cross_group_mask(groups, n_modes):
    """keep[i, n]: whether term i enters mode n's divided sums.

    Excludes every pair inside one degeneracy group: their numerators
    vanish in the adapted basis, so the exclusion is structural, not
    threshold-based.
    """
    keep = np.ones((n_modes, n_modes), dtype=bool)
    for members in groups:
        mg = np.array(members)
        keep[np.ix_(mg, mg)] = False
    return keep


def _divided(numer, lam, keep):
    """numer[i, n] / (lambda_n - lambda_i) where keep, zero elsewhere.

    Refuses with SmallGapError when a kept gap falls below GAP_GUARD.
    """
    gaps = lam[None, :] - lam[:, None]
    tight = keep & (np.abs(gaps) < GAP_GUARD * (1.0 + np.abs(lam[None, :])))
    if np.any(tight):
        i, n = np.argwhere(tight)[0]
        raise SmallGapError(
            f"cross-group gap below guard between modes {int(i)} and {int(n)}; "
            "increase tol_deg"
        )
    out = np.zeros_like(numer)
    np.divide(numer, gaps, out=out, where=keep)
    return out


def _refined_basis(spectral):
    """(spectral, extended eigenvalues) after one refinement step across groups.

    A double-precision eigensolve mixes modes i and j at rounding level
    over their gap, and its eigenvalues carry rounding of order eps |lambda|.
    The divided sums amplify both by 1 / (lambda_j - lambda_i), so two
    modes 7.8e-4 apart on a jittered icosphere put the double-precision
    full-basis lambda2 1.4e-9 off a 34-digit reference.  One first-order
    step in np.longdouble removes the mixing:
    psi_j += sum_i C_ij psi_i, C_ij = (A - lambda_j B)_ij / (lambda_j - lambda_i)
    over modes i outside the group of j, where A = Psi^T K Psi and
    B = Psi^T M0 Psi; the refined vectors are M0-normalized and their
    Rayleigh quotients are the extended eigenvalues.  Mixing inside a
    group is left to the adaptation.
    """
    ext = np.longdouble
    pair = spectral.pair
    psi = spectral.eigenvectors.astype(ext)
    lam = spectral.eigenvalues.astype(ext)
    mass = pair.mass.astype(ext)[:, None]
    stiffness = pair.stiffness.astype(ext)
    # (A - lambda_j B)_ij = <psi_i, (K - lambda_j M0) psi_j>
    residual = stiffness @ psi - mass * psi * lam[None, :]
    ids = spectral.group_ids()
    step = np.zeros((lam.shape[0], lam.shape[0]), dtype=ext)
    np.divide(
        psi.T @ residual,
        lam[None, :] - lam[:, None],
        out=step,
        where=ids[:, None] != ids[None, :],
    )
    psi = psi + psi @ step
    psi /= np.sqrt(np.einsum("in,in->n", psi, mass * psi))
    lam = np.einsum("in,in->n", psi, stiffness @ psi)
    refined = replace(spectral, eigenvalues=lam.astype(float), eigenvectors=psi.astype(float))
    return refined, lam


def full_basis_corrections(spectral, ops):
    """(adapted, lambda1, lambda2, psi1_coeffs) from the divided sums.

    The oracle for compute_corrections: spectral holds every mode, its
    basis is refined in extended precision (_refined_basis) and adapted as
    the package adapts it, and
    lambda2_n = sum_i E[n, i] E[i, n] / (lambda_n - lambda_i) + <psi_n, H2 psi_n>
    over modes i outside the group of n, with the gaps taken in extended
    precision.  Column n of psi1_coeffs holds the coefficients of psi1_n
    in the adapted basis: E[i, n] / (lambda_n - lambda_i) off the group
    and -1/2 <psi_n, G1 psi_n> on the diagonal.
    """
    n_modes = spectral.n_modes
    if n_modes != spectral.pair.node_count:
        raise ValueError("the full-basis sums need every mode")
    refined, lam = _refined_basis(spectral)
    adapted = adapt_degenerate_basis(refined, ops)
    psi = adapted.eigenvectors
    mass = ops.pair.mass
    keep = _cross_group_mask(adapted.degeneracy_groups, n_modes)
    elements = matrix_elements(adapted, ops)
    h2_term = np.einsum("in,in->n", psi, mass[:, None] * ops.apply_h2(psi))
    lambda2 = _divided(elements * elements.T, lam, keep).sum(axis=0) + h2_term
    coeffs = _divided(elements, lam, keep)
    diag = -0.5 * np.einsum("in,in->n", psi, mass[:, None] * (ops.g1[:, None] * psi))
    coeffs[np.arange(n_modes), np.arange(n_modes)] = diag
    return adapted, first_order(adapted, ops), lambda2, coeffs


def qm_special_case(spectral, h1):
    """Textbook corrections for an M0-symmetric operator perturbation.

    Requires H1 self-adjoint in the M0 inner product.  Cross-checks the
    fixed-inner-product formulas against the general machinery run with
    G1 = G2 = 0, H2 = 0, and returns (lambda1, lambda2).
    """
    pair = spectral.pair
    h1 = np.asarray(h1, dtype=float)
    m_h1 = pair.mass[:, None] * h1
    asym = np.abs(m_h1 - m_h1.T).max()
    if asym > 1e-10 * max(np.abs(m_h1).max(), 1.0):
        raise SymmetryError(f"H1 is not M0-symmetric: asymmetry {asym:.3e}")
    ops = generic_operators(pair, h1)
    adapted = adapt_degenerate_basis(spectral, ops)
    lambda1 = first_order(adapted, ops)
    lambda2 = second_order(adapted, ops)

    # independent arithmetic path through the squared-element formula
    elements = matrix_elements(adapted, ops)
    keep = _cross_group_mask(adapted.degeneracy_groups, adapted.n_modes)
    lambda2_explicit = _divided(elements**2, adapted.eigenvalues, keep).sum(axis=0)
    scale1 = 1.0 + np.abs(lambda1)
    scale2 = 1.0 + np.abs(lambda2)
    if np.any(np.abs(np.diag(elements) - lambda1) > 1e-12 * scale1) or np.any(
        np.abs(lambda2_explicit - lambda2) > 1e-12 * scale2
    ):
        raise NumericalBreakdownError(
            "squared-element formulas disagree with the general machinery"
        )
    return lambda1, lambda2


@dataclass(frozen=True)
class InductionReport:
    """Outcome of replaying the elimination argument on one perturbation.

    rows holds the certified mode indices (nonconstant modes, ascending).
    row_maxima are the largest actual upper matrix elements |<psi_i, f psi_n>|
    per row; certified_bounds are the bounds the vanishing second-order
    corrections force on them through the sign-definite partial sums.
    """

    passed: bool
    tol: float
    rows: np.ndarray = field(repr=False)
    row_maxima: np.ndarray = field(repr=False)
    certified_bounds: np.ndarray = field(repr=False)
    inconsistent: bool = False
    lambda1_scaled_max: float = 0.0
    lambda2_scaled_max: float = 0.0

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "passed": bool(self.passed),
            "tol": float(self.tol),
            "rows": [int(x) for x in self.rows],
            "row_maxima": [float(x) for x in self.row_maxima],
            "certified_bounds": [float(x) for x in self.certified_bounds],
            "inconsistent": bool(self.inconsistent),
            "lambda1_scaled_max": float(self.lambda1_scaled_max),
            "lambda2_scaled_max": float(self.lambda2_scaled_max),
        }


def induction_verifier(
    spectral, ops, tol, lambda1=None, lambda2=None, elements=None
):
    """Replay the elimination argument for a conformal perturbation.

    Premise: the first two eigenvalue corrections vanish (within tol at
    the eigenvalue scale); otherwise NotApplicableError.  The replay walks
    the nonconstant modes in ascending order.  In row n every divided term
    with lambda_i > lambda_n has the same sign and the terms against the
    zero eigenspace carry weight zero, so a vanishing second-order
    correction (minus the contribution of rows already eliminated) bounds
    each upper element; the certified bound per row is reported alongside
    the actual row maximum.

    lambda1, lambda2, elements may be injected to audit the verifier
    itself; injected corrections inconsistent with the recomputed divided
    sums set the inconsistency flag and fail the verdict.
    """
    lam = spectral.eigenvalues
    n_modes = spectral.n_modes
    if elements is None:
        elements = field_matrix_elements(spectral, ops.h1_multiplier)
    else:
        elements = np.asarray(elements, dtype=float)
    group_ids = spectral.group_ids()

    keep = _cross_group_mask(spectral.degeneracy_groups, n_modes)
    weights = lam[:, None] * lam[None, :]
    terms = _divided(weights * elements * elements, lam, keep)

    if lambda1 is None:
        lambda1 = lam * np.diag(elements)
    else:
        lambda1 = np.asarray(lambda1, dtype=float)
    model_lambda2 = terms.sum(axis=0)
    if lambda2 is None:
        lambda2 = model_lambda2
    else:
        lambda2 = np.asarray(lambda2, dtype=float)

    scale1 = 1.0 + np.abs(lam)
    scale2 = (1.0 + np.abs(lam)) ** 2
    l1_max = float(np.max(np.abs(lambda1) / scale1))
    l2_max = float(np.max(np.abs(lambda2) / scale2))
    if l1_max > tol:
        raise NotApplicableError(
            f"first-order corrections do not vanish (scaled max {l1_max:.3e})"
        )
    if l2_max > tol:
        raise NotApplicableError(
            f"second-order corrections do not vanish (scaled max {l2_max:.3e})"
        )
    inconsistent = bool(
        np.any(np.abs(model_lambda2 - lambda2) > 0.01 * tol * scale2)
    )

    zero_level = 1e-8 * (1.0 + abs(float(lam[-1])))
    rows, row_maxima, bounds = [], [], []
    for n in range(n_modes):
        if lam[n] <= zero_level:
            continue
        upper = np.flatnonzero((group_ids > group_ids[n]) & (lam > lam[n]))
        if upper.size == 0:
            continue
        lower = np.flatnonzero(
            (group_ids < group_ids[n]) & (lam > zero_level) & (lam < lam[n])
        )
        lower_contrib = float(terms[lower, n].sum()) if lower.size else 0.0
        residual = abs(float(lambda2[n]) - lower_contrib) + tol * float(scale2[n])
        factor = float(np.max((lam[upper] - lam[n]) / (lam[upper] * lam[n])))
        rows.append(n)
        row_maxima.append(float(np.abs(elements[upper, n]).max()))
        bounds.append(float(np.sqrt(residual * factor)))

    rows = np.array(rows, dtype=np.int64)
    row_maxima = np.array(row_maxima)
    bounds = np.array(bounds)
    passed = (not inconsistent) and bool(np.all(row_maxima <= tol))
    return InductionReport(
        passed=passed,
        tol=tol,
        rows=rows,
        row_maxima=row_maxima,
        certified_bounds=bounds,
        inconsistent=inconsistent,
        lambda1_scaled_max=l1_max,
        lambda2_scaled_max=l2_max,
    )
