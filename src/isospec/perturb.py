"""Eigenvalue/eigenvector corrections under a moving inner product.

The family H(t) = H0 + t H1 + t^2 H2 is self-adjoint with respect to the
perturbed inner product M_t = M0 (I + t G1 + t^2 G2), not with respect to
M0 itself.  The first and second order eigenvalue corrections nevertheless
take no input from G1, G2; the inner-product data only fixes the
normalization coefficient of the eigenvector correction.

Degenerate levels need an adapted basis before the formulas apply.  The
adaptation runs in two stages: first each degeneracy group is rotated so
the projected H1 is diagonal; then, wherever first-order corrections still
tie inside a group, the tied subspace is rotated so the projected
second-order effective operator is diagonal as well.  The second stage
acts inside eigenspaces of the projected H1, so the first stage survives.
Without the second stage, per-branch second-order corrections are basis
garbage whenever the projected H1 vanishes on a group.

Sums over every mode outside a group g come from one sparse solve per
group (Sternheimer), not from a full spectrum.  With Q the M0-projector
off g and lambda_g the group mean, column a of the solution X of

    [[lambda_g M0 - K, M0 Psi_g], [Psi_g^T M0, 0]] [X; mu] = [M0 Q H1 Psi_g; 0]

is sum_{i not in g} psi_i E[i, a] / (lambda_g - lambda_i), the M0-orthogonal
part of the eigenvector correction, whatever window of modes was solved.
The factorization of that bordered system comes from eigen's sparse-kernel
seam (eigen._Kernels), which owns every SuperLU call of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .eigen import _Kernels, _fix_signs, _runs
from .errors import (
    ModeCountError,
    NumericalBreakdownError,
    SmallGapError,
    SurfaceMismatchError,
)

GAP_GUARD = 1e-12
TIE_TOL = 1e-9


@dataclass(frozen=True)
class CorrectionReport:
    """Per-mode corrections through second order.

    The first-order eigenvector correction of mode n is
    psi1_n = psi1_orthogonal[:, n] + psi1_normalization[n] * psi_n, with
    psi_n the adapted basis vector (adapt_degenerate_basis).  The first part
    is M0-orthogonal to the degeneracy group of n and independent of G1 and
    G2; the coefficient is -1/2 <psi_n, G1 psi_n>.
    """

    lambda0: np.ndarray = field(repr=False)
    lambda1: np.ndarray = field(repr=False)
    lambda2: np.ndarray = field(repr=False)
    psi1_orthogonal: np.ndarray = field(repr=False)
    psi1_normalization: np.ndarray = field(repr=False)
    basis_rotations: dict
    degeneracy_groups: tuple
    tol_deg: float

    @property
    def n_modes(self):
        return self.lambda0.shape[0]

    def to_json_dict(self):
        return {
            "schema_version": 2,
            "n_modes": int(self.n_modes),
            "tol_deg": float(self.tol_deg),
            "degeneracy_groups": [list(g) for g in self.degeneracy_groups],
            "lambda0": [float(x) for x in self.lambda0],
            "lambda1": [float(x) for x in self.lambda1],
            "lambda2": [float(x) for x in self.lambda2],
        }


def matrix_elements(spectral, ops):
    """E[i, n] = <psi_i, H1 psi_n> in the M0 inner product."""
    return _elements(spectral.eigenvectors, ops)


def _elements(psi, ops):
    """<psi_i, H1 psi_n> in the M0 inner product over the columns of psi."""
    return psi.T @ (ops.pair.mass[:, None] * ops.apply_h1(psi))


def _group_solve(ops, psi, lam, members):
    """(X, M2) of one degeneracy group by the bordered solve (module docstring).

    M2 = (H1* Psi_g)^T M0 X + Psi_g^T M0 H2 Psi_g is the group's
    second-order effective operator.  Refuses with SmallGapError when the
    group mean lies within GAP_GUARD of another computed eigenvalue.
    """
    sl = slice(members[0], members[-1] + 1)
    lam_g = float(np.mean(lam[sl]))
    outside = np.ones(lam.shape[0], dtype=bool)
    outside[sl] = False
    tight = np.flatnonzero(outside & (np.abs(lam_g - lam) < GAP_GUARD * (1.0 + abs(lam_g))))
    if tight.size:
        raise SmallGapError(
            f"cross-group gap below guard between modes {members[0]}-{members[-1]} "
            f"and mode {int(tight[0])}; increase tol_deg"
        )
    mass = ops.pair.mass
    psi_g = psi[:, sl]
    border = mass[:, None] * psi_g
    h1psi = ops.apply_h1(psi_g)
    rhs = mass[:, None] * h1psi - border @ (border.T @ h1psi)
    x = _Kernels(ops.pair).bordered(lam_g, border, rhs, members)
    _check_orthogonal(border, x, members)
    m2 = ops.apply_h1_adjoint(psi_g).T @ (mass[:, None] * x)
    m2 += psi_g.T @ (mass[:, None] * ops.apply_h2(psi_g))
    return x, m2


def _check_orthogonal(border, x, members):
    """Refuse a bordered solution that is not M0-orthogonal to its group.

    The border rows demand Psi_g^T M0 X = 0.  Where the border is tiny next
    to lambda_g M0 - K (a torus of period 1e-20, or one whose couplings
    along an axis vanish), rounding in the block can outweigh it, and the
    factorization returns an X that violates the constraint and a wrong
    lambda2.  The measure is a cosine, at most 1: below 1e-13 on sound
    solves, above 0.1 on these.
    """
    x_max = np.abs(x).max()
    if not 0.0 < x_max < np.inf:  # a zero X is exact; overflow is caught later
        return
    b, y = border / np.abs(border).max(), x / x_max
    cosine = np.abs(b.T @ y).max() / (
        np.linalg.norm(b, axis=0).max() * np.linalg.norm(y, axis=0).max()
    )
    if not cosine <= 1e-8:
        raise NumericalBreakdownError(
            f"bordered solve of modes {members[0]}-{members[-1]} is not "
            f"M0-orthogonal to its group (cosine {cosine:.3e})"
        )


def adapt_degenerate_basis(spectral, ops):
    """Rotate degeneracy groups so the perturbation formulas apply per branch.

    Stage 1 diagonalizes the projected H1 on every multi-member group.
    Stage 2 diagonalizes the projected second-order effective operator
    M2_ab = sum_{i not in g} E_ai E_ib / (lambda_g - lambda_i) + <a, H2 b>,
    from the group's bordered solve, inside subspaces where stage 1 left
    first-order ties.  Branches end up ordered by (first-order, then
    second-order) correction within each group.  Returns a new SpectralData
    with rotations recorded per group; singleton groups are untouched and
    not recorded.  spectral must come from the operator pair of ops
    (SurfaceMismatchError).
    """
    _require_same_pair(spectral, ops)
    groups = spectral.degeneracy_groups
    lam = spectral.eigenvalues
    psi = spectral.eigenvectors.copy()
    rotations = {}
    for gid, members in enumerate(groups):
        if len(members) == 1:
            continue
        g = slice(members[0], members[-1] + 1)
        b = _elements(psi[:, g], ops)
        d, r = _ascending_eigensystem(0.5 * (b + b.T))
        psi[:, g] = psi[:, g] @ r
        # M2 spans every mode outside the group, so the rotations of other
        # groups leave it unchanged
        runs = [run for run in _ties(d, lam[g]) if len(run) > 1]
        if runs:
            m2 = _group_solve(ops, psi, lam, members)[1]
            m2 = 0.5 * (m2 + m2.T)
        for run in runs:
            _, r2 = _ascending_eigensystem(m2[np.ix_(run, run)])
            cols = members[0] + run
            psi[:, cols] = psi[:, cols] @ r2
            r[:, run] = r[:, run] @ r2
        # deterministic signs, folded into the recorded rotation
        rotations[gid] = r * _fix_signs(psi[:, g])

    _check_adapted(psi, lam, ops, groups, rotations)
    psi.flags.writeable = False
    return replace(spectral, eigenvectors=psi, basis_rotations=rotations)


def _ascending_eigensystem(block):
    """eigh, except an already-diagonal block only gets its branches sorted.

    Rotating inside a cluster that is diagonal up to rounding would replace
    the solver's clean basis with an arbitrary orthogonal mix of it.
    """
    if not np.all(np.isfinite(block)):
        raise NumericalBreakdownError("projected perturbation block is not finite")
    diag = np.diag(block).copy()
    off = np.abs(block - np.diag(diag)).max()
    if off <= 1e-13 * (1.0 + np.abs(diag).max()):
        order = np.argsort(diag, kind="stable")
        # don't let rounding noise reorder effectively-equal branches
        runs = _runs(diag[order], 1e-12 * (1.0 + np.abs(diag).max()))
        order = np.concatenate([np.sort(order[run]) for run in runs])
        return diag[order], np.eye(block.shape[0])[:, order]
    return scipy.linalg.eigh(block)


def _ties(lambda1, lambda0):
    """Runs of tied first-order corrections in one degeneracy group.

    lambda1 ascending, lambda0 the group's eigenvalues; local indices.
    Branches tie within TIE_TOL * (1 + |lambda_g|), lambda_g the group mean.
    """
    return _runs(lambda1, TIE_TOL * (1.0 + abs(float(np.mean(lambda0)))))


def _check_adapted(psi, lam, ops, groups, rotated):
    for gid in rotated:
        idx = np.array(groups[gid])
        b = _elements(psi[:, idx], ops)
        off = np.abs(b - np.diag(np.diag(b))).max()
        scale = max(np.abs(np.diag(b)).max(), 1.0 + abs(float(lam[idx[0]])))
        if off > 1e-10 * scale:
            raise NumericalBreakdownError(
                f"projected H1 not diagonal after adaptation in group {gid}: "
                f"off-diagonal {off:.3e}"
            )


def first_order(spectral, ops):
    """lambda1_n = <psi_n, H1 psi_n>; assumes degenerate groups adapted."""
    psi = spectral.eigenvectors
    mass = ops.pair.mass
    return np.einsum("in,in->n", psi, mass[:, None] * ops.apply_h1(psi))


def second_order(spectral, ops):
    """lambda2 per mode, the diagonal of each group's M2; assumes groups adapted.

    The sums run over the whole basis (see the module docstring), so the
    spectrum must not cut a degeneracy group at its end, and it must come
    from the operator pair of ops.
    """
    _require_closed(spectral)
    _require_same_pair(spectral, ops)
    return _second_order(spectral, ops)[0]


def _require_same_pair(spectral, ops):
    if spectral.pair is not ops.pair:
        raise SurfaceMismatchError(
            "spectrum and perturbation operators come from different operator pairs"
        )


def _require_closed(spectral):
    if not (spectral.closed or spectral.n_modes == spectral.pair.node_count):
        raise ModeCountError(
            f"a spectrum of {spectral.n_modes} of {spectral.pair.node_count} modes "
            "may cut a degeneracy group; solve every mode or use eigen.solve_window"
        )


def _second_order(spectral, ops):
    """(lambda2, psi1_orthogonal) from one bordered solve per group."""
    lam = spectral.eigenvalues
    psi = spectral.eigenvectors
    lambda2 = np.empty(spectral.n_modes)
    orthogonal = np.empty(psi.shape)
    for members in spectral.degeneracy_groups:
        sl = slice(members[0], members[-1] + 1)
        orthogonal[:, sl], m2 = _group_solve(ops, psi, lam, members)
        lambda2[sl] = np.diag(m2)
    return lambda2, orthogonal


@np.errstate(over="ignore", invalid="ignore")
def compute_corrections(spectral, ops):
    """Adapt the basis and assemble the full correction report.

    spectral must come from the operator pair of ops (SurfaceMismatchError),
    and it must not cut a degeneracy group at its end: a solve of every
    mode, or a window from eigen.solve_window.  Each group costs one sparse
    factorization (two where stage 2 of the adaptation runs), whatever the
    number of modes outside the window.
    """
    _require_closed(spectral)
    adapted = adapt_degenerate_basis(spectral, ops)
    psi = adapted.eigenvectors
    lambda1 = first_order(adapted, ops)
    lambda2, orthogonal = _second_order(adapted, ops)
    normalization = -0.5 * np.einsum(
        "in,in->n", psi, ops.pair.mass[:, None] * (ops.g1[:, None] * psi)
    )
    results = {
        "lambda1": lambda1,
        "lambda2": lambda2,
        "psi1_orthogonal": orthogonal,
        "psi1_normalization": normalization,
    }
    for name, values in results.items():
        if not np.all(np.isfinite(values)):
            raise NumericalBreakdownError(
                f"{name} is not finite: the perturbation overflows"
            )

    return CorrectionReport(
        lambda0=adapted.eigenvalues,
        basis_rotations=adapted.basis_rotations,
        degeneracy_groups=adapted.degeneracy_groups,
        tol_deg=adapted.tol_deg,
        **results,
    )


def branch_permutation(report, sign):
    """Mode order matching the ascending exact spectrum at parameter sign.

    Within each degeneracy group the adapted branches carry distinct
    (lambda1, lambda2) labels sorted ascending.  For t > 0 the exact
    eigenvalues sort the branches the same way; for t < 0 runs of tied
    lambda1 reverse blockwise while the lambda2 order inside each run is
    preserved.  Cross-group order is unchanged for small |t|.
    """
    perm = []
    for members in report.degeneracy_groups:
        members = list(members)
        if len(members) == 1 or sign > 0:
            perm.extend(members)
            continue
        runs = _ties(report.lambda1[members], report.lambda0[members])
        for run in reversed(runs):
            perm.extend(members[i] for i in run)
    return np.array(perm, dtype=np.int64)


def predicted_spectrum(report, t):
    """Second-order prediction aligned with the ascending exact spectrum."""
    perm = branch_permutation(report, 1.0 if t >= 0.0 else -1.0)
    return (
        report.lambda0[perm]
        + t * report.lambda1[perm]
        + t * t * report.lambda2[perm]
    )
