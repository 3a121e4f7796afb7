"""Eigenvalue/eigenvector corrections under a moving inner product.

The family H(t) = H0 + t H1 + t^2 H2 is self-adjoint with respect to the
perturbed inner product M_t = M0 (I + t G1 + t^2 G2), not with respect to
M0 itself.  The first and second order eigenvalue corrections nevertheless
take no input from G1, G2; the inner-product data only fixes the diagonal
normalization coefficient of the eigenvector correction.

Degenerate levels need an adapted basis before the formulas apply.  The
adaptation runs in two stages: first each degeneracy group is rotated so
the projected H1 is diagonal; then, wherever first-order corrections still
tie inside a group, the tied subspace is rotated so the projected
second-order effective operator is diagonal as well.  The second stage
acts inside eigenspaces of the projected H1, so the first stage survives.
Without the second stage, per-branch second-order corrections are basis
garbage whenever the projected H1 vanishes on a group.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .eigen import SpectralData, _fix_signs
from .errors import NumericalBreakdownError, SmallGapError

logger = logging.getLogger(__name__)

GAP_GUARD = 1e-12
TIE_TOL = 1e-9


@dataclass(frozen=True)
class CorrectionReport:
    """Per-mode corrections through second order.

    psi1_coeffs column n holds the coefficients c_i of the first-order
    eigenvector correction psi1_n = sum_i c_i psi_i; its diagonal entry is
    the normalization coefficient -1/2 <psi_n, G1 psi_n>.
    """

    lambda0: np.ndarray = field(repr=False)
    lambda1: np.ndarray = field(repr=False)
    lambda2: np.ndarray = field(repr=False)
    psi1_coeffs: np.ndarray = field(repr=False)
    basis_rotations: dict
    degeneracy_groups: tuple
    tol_deg: float
    truncation_modes: int
    tail_estimates: np.ndarray = field(repr=False)
    truncation_warnings: np.ndarray = field(repr=False)

    @property
    def n_modes(self):
        return self.lambda0.shape[0]

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "n_modes": int(self.n_modes),
            "truncation_modes": int(self.truncation_modes),
            "tol_deg": float(self.tol_deg),
            "degeneracy_groups": [list(g) for g in self.degeneracy_groups],
            "lambda0": [float(x) for x in self.lambda0],
            "lambda1": [float(x) for x in self.lambda1],
            "lambda2": [float(x) for x in self.lambda2],
            "tail_estimates": [float(x) for x in self.tail_estimates],
            "truncation_warnings": [bool(x) for x in self.truncation_warnings],
        }


def matrix_elements(spectral, ops):
    """E[i, n] = <psi_i, H1 psi_n> in the M0 inner product."""
    return _elements(spectral.eigenvectors, ops)


def _elements(psi, ops):
    """<psi_i, H1 psi_n> in the M0 inner product over the columns of psi."""
    return psi.T @ (ops.pair.mass[:, None] * ops.apply_h1(psi))


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


def _lambda2(spectral, ops, elements, keep):
    """(lambda2, its divided sum) from E and the cross-group mask."""
    psi = spectral.eigenvectors
    sum_term = _divided(elements * elements.T, spectral.eigenvalues, keep).sum(axis=0)
    h2_term = np.einsum("in,in->n", psi, ops.pair.mass[:, None] * ops.apply_h2(psi))
    return sum_term + h2_term, sum_term


def adapt_degenerate_basis(spectral, ops, tie_tol=TIE_TOL):
    """Rotate degeneracy groups so the perturbation formulas apply per branch.

    Stage 1 diagonalizes the projected H1 on every multi-member group.
    Stage 2 diagonalizes the projected second-order effective operator
    M2_ab = sum_{i not in g} E_ai E_ib / (lambda_g - lambda_i) + <a, H2 b>
    inside subspaces where stage 1 left first-order ties.  Branches end up
    ordered by (first-order, then second-order) correction within each
    group.  Returns a new SpectralData with rotations recorded per group;
    singleton groups are untouched and not recorded.
    """
    groups = spectral.degeneracy_groups
    multi = [gid for gid, g in enumerate(groups) if len(g) > 1]
    if not multi:
        return SpectralData(
            pair=spectral.pair,
            eigenvalues=spectral.eigenvalues,
            eigenvectors=spectral.eigenvectors,
            degeneracy_groups=groups,
            tol_deg=spectral.tol_deg,
            basis_rotations={},
        )

    lam = spectral.eigenvalues
    mass = ops.pair.mass
    psi = spectral.eigenvectors.copy()
    rotations = {}
    stage1 = {}

    for gid in multi:
        idx = np.array(groups[gid])
        block = psi[:, idx]
        b = _elements(block, ops)
        b = 0.5 * (b + b.T)
        d, r = _ascending_eigensystem(b)
        psi[:, idx] = block @ r
        rotations[gid] = r
        stage1[gid] = d

    # full matrix elements in the stage-1 basis; the second-order effective
    # blocks below are invariant under the stage-2 rotations of other groups
    elements = _elements(psi, ops)
    h2psi = ops.apply_h2(psi)

    for gid in multi:
        idx = np.array(groups[gid])
        lam_g = float(np.mean(lam[idx]))
        runs = _tie_runs(stage1[gid], tie_tol * (1.0 + abs(lam_g)))
        if all(len(run) == 1 for run in runs):
            continue
        out = np.ones(lam.shape[0], dtype=bool)
        out[idx] = False
        out_idx = np.flatnonzero(out)
        gaps = lam_g - lam[out_idx]
        tight = np.abs(gaps) < GAP_GUARD * (1.0 + abs(lam_g))
        if np.any(tight):
            other = int(out_idx[np.flatnonzero(tight)[0]])
            raise SmallGapError(
                f"cross-group gap below guard between group {gid} and mode "
                f"{other}; increase tol_deg"
            )
        m2 = (elements[np.ix_(idx, out_idx)] / gaps[None, :]) @ elements[
            np.ix_(out_idx, idx)
        ]
        m2 += psi[:, idx].T @ (mass[:, None] * h2psi[:, idx])
        m2 = 0.5 * (m2 + m2.T)
        r_total = rotations[gid].copy()
        for run in runs:
            if len(run) == 1:
                continue
            sub = m2[np.ix_(run, run)]
            _, r2 = _ascending_eigensystem(0.5 * (sub + sub.T))
            cols = idx[run]
            psi[:, cols] = psi[:, cols] @ r2
            r_total[:, run] = r_total[:, run] @ r2
        rotations[gid] = r_total

    # deterministic signs, folded into the recorded rotations
    for gid in multi:
        idx = np.array(groups[gid])
        fixed = _fix_signs(psi[:, idx])
        signs = np.where(
            np.einsum("ij,ij->j", fixed, psi[:, idx]) >= 0.0, 1.0, -1.0
        )
        psi[:, idx] = fixed
        rotations[gid] = rotations[gid] * signs[None, :]

    _check_adapted(psi, lam, ops, groups, multi)
    psi.flags.writeable = False
    return SpectralData(
        pair=spectral.pair,
        eigenvalues=lam,
        eigenvectors=psi,
        degeneracy_groups=groups,
        tol_deg=spectral.tol_deg,
        basis_rotations=rotations,
    )


def _ascending_eigensystem(block):
    """eigh, except an already-diagonal block only gets its branches sorted.

    Rotating inside a cluster that is diagonal up to rounding would replace
    the solver's clean basis with an arbitrary orthogonal mix of it.
    """
    diag = np.diag(block).copy()
    off = np.abs(block - np.diag(diag)).max()
    if off <= 1e-13 * (1.0 + np.abs(diag).max()):
        order = list(np.argsort(diag, kind="stable"))
        # don't let rounding noise reorder effectively-equal branches
        tol_same = 1e-12 * (1.0 + np.abs(diag).max())
        start = 0
        for i in range(1, len(order) + 1):
            if i == len(order) or diag[order[i]] - diag[order[i - 1]] > tol_same:
                order[start:i] = sorted(order[start:i])
                start = i
        order = np.array(order)
        return diag[order], np.eye(block.shape[0])[:, order]
    return scipy.linalg.eigh(block)


def _tie_runs(values, tol):
    """Runs of consecutive near-equal values (local indices, values sorted)."""
    runs = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= tol:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _check_adapted(psi, lam, ops, groups, multi):
    for gid in multi:
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
    """lambda2 per mode from the divided sums over the computed modes.

    The sum for mode n runs over computed modes outside its degeneracy
    group; compute_corrections takes lambda2 from the same helpers, so
    both agree bit for bit.
    """
    keep = _cross_group_mask(spectral.degeneracy_groups, spectral.n_modes)
    return _lambda2(spectral, ops, matrix_elements(spectral, ops), keep)[0]


def compute_corrections(spectral, ops):
    """Adapt the basis and assemble the full correction report.

    One element matrix E in the adapted basis and one cross-group mask
    give lambda2 (as second_order does), the psi1 coefficients
    E[i, n] / (lambda_n - lambda_i) and the truncation tails.  The sums
    run over the computed modes; when those are not the full basis, the
    tail estimate bounds the omitted terms through the completeness
    identity sum_i E[i,n] E[n,i] = <H1.adj psi_n, H1 psi_n>, which needs
    no full basis: the computed partial sum is subtracted from the right
    side.
    """
    adapted = adapt_degenerate_basis(spectral, ops)
    n_modes = adapted.n_modes
    lam = adapted.eigenvalues
    psi = adapted.eigenvectors
    mass = ops.pair.mass

    lambda1 = first_order(adapted, ops)
    keep = _cross_group_mask(adapted.degeneracy_groups, n_modes)
    elements = matrix_elements(adapted, ops)
    lambda2, sum_term = _lambda2(adapted, ops, elements, keep)

    total = np.einsum(
        "in,in->n", ops.apply_h1_adjoint(psi), mass[:, None] * ops.apply_h1(psi)
    )
    partial = (elements * elements.T).sum(axis=0)
    tail_raw = np.maximum(total - partial, 0.0)
    tail_raw[tail_raw < 1e-10 * (1.0 + np.abs(total))] = 0.0
    gap_edge = lam[-1] - lam
    tails = np.full(n_modes, np.inf)
    np.divide(tail_raw, gap_edge, out=tails, where=gap_edge > 0.0)
    tails[tail_raw == 0.0] = 0.0
    warn = tails > np.maximum(0.01 * np.abs(sum_term), 1e-12 * (1.0 + lam) ** 2)
    if np.any(warn):
        logger.warning(
            "second-order truncation tail above 1%% of the partial sum for "
            "%d of %d modes",
            int(warn.sum()),
            n_modes,
        )

    coeffs = _divided(elements, lam, keep)
    diag = -0.5 * np.einsum("in,in->n", psi, mass[:, None] * (ops.g1[:, None] * psi))
    coeffs[np.arange(n_modes), np.arange(n_modes)] = diag

    return CorrectionReport(
        lambda0=lam,
        lambda1=lambda1,
        lambda2=lambda2,
        psi1_coeffs=coeffs,
        basis_rotations=adapted.basis_rotations,
        degeneracy_groups=adapted.degeneracy_groups,
        tol_deg=adapted.tol_deg,
        truncation_modes=n_modes,
        tail_estimates=tails,
        truncation_warnings=warn,
    )


def branch_permutation(report, sign, tie_tol=TIE_TOL):
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
        lam_g = float(np.mean(report.lambda0[members]))
        l1 = report.lambda1[members]
        runs = _tie_runs(l1, tie_tol * (1.0 + abs(lam_g)))
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
