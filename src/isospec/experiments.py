"""Experiments on isospectral rigidity of conformal families.

Three numerical embodiments of continuum statements, stated as such:

* The obstruction map sends a conformal factor to the matrix of its
  eigenfunction elements.  A trivial kernel over a finite field space is
  the discrete shadow of "only f = 0 perturbs isospectrally to first
  order"; it never claims the continuum result.
* The induction verifier replays the elimination argument: once the first
  two eigenvalue corrections vanish, the divided second-order sums are
  sign-definite row by row and force the upper matrix elements to zero.
* The convexity probes blend two conformal factors along a segment and
  quantify how the interior spectra depart from the endpoint spectrum.

A Weyl counting fit (area from eigenvalue growth) rounds out the toolbox.
"""

from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import eigen
from .assembly import (
    assemble_base,
    conformal_operators,
    conformal_pair,
    exact_perturbed_pair,
)
from .errors import (
    InsufficientModesError,
    ModeCountError,
    NotApplicableError,
    PositivityError,
    RankDeficientBasisError,
    SurfaceMismatchError,
)
from .perturb import (
    _cross_group_mask,
    _divided,
    branch_permutation,
    compute_corrections,
    predicted_spectrum,
)
from .surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    SurfaceKind,
    fourier_fields,
)

logger = logging.getLogger(__name__)

DEFAULT_KERNEL_TOL = 1e-8


@dataclass(frozen=True)
class ObstructionReport:
    """Singular spectrum of the map f -> {<psi_i, f psi_j>}_{i,j<N}."""

    n_modes: int
    field_dim: int
    singular_values: np.ndarray = field(repr=False)
    kernel_dim: int = 0
    kernel_tol: float = DEFAULT_KERNEL_TOL

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "n_modes": int(self.n_modes),
            "field_dim": int(self.field_dim),
            "singular_values": [float(x) for x in self.singular_values],
            "kernel_dim": int(self.kernel_dim),
            "kernel_tol": float(self.kernel_tol),
        }


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


@dataclass(frozen=True)
class ConvexityProbeReport:
    """Spectral deviations along the segment tau*c1 + (1-tau)*c2."""

    tau_grid: np.ndarray = field(repr=False)
    spectral_distances: np.ndarray = field(repr=False)
    endpoints_isospectral_gap: float = 0.0
    eigenvalues: np.ndarray = field(repr=False, default=None)
    deviations: np.ndarray = field(repr=False, default=None)
    n_modes: int = 0

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "n_modes": int(self.n_modes),
            "tau_grid": [float(x) for x in self.tau_grid],
            "spectral_distances": [float(x) for x in self.spectral_distances],
            "endpoints_isospectral_gap": float(self.endpoints_isospectral_gap),
        }

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau", "mode", "eigenvalue", "deviation"])
            for k, tau in enumerate(self.tau_grid):
                for n in range(self.n_modes):
                    writer.writerow(
                        [
                            repr(float(tau)),
                            n,
                            repr(float(self.eigenvalues[k, n])),
                            repr(float(self.deviations[k, n])),
                        ]
                    )


@dataclass(frozen=True)
class MetricProbeReport:
    """Metric-side pipeline: collapsed second order vs generic vs exact."""

    t_grid: np.ndarray = field(repr=False)
    lambda0: np.ndarray = field(repr=False)
    lambda1: np.ndarray = field(repr=False)
    lambda2: np.ndarray = field(repr=False)
    collapsed_lambda2: np.ndarray = field(repr=False)
    collapsed_vs_generic_max: float = 0.0
    prediction_deviations: np.ndarray = field(repr=False, default=None)
    fd_step: float | None = None
    fd_lambda1: np.ndarray | None = field(repr=False, default=None)
    fd_lambda2: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_modes(self):
        return self.lambda0.shape[0]

    def to_json_dict(self):
        out = {
            "schema_version": 1,
            "n_modes": int(self.n_modes),
            "t_grid": [float(x) for x in self.t_grid],
            "lambda0": [float(x) for x in self.lambda0],
            "lambda1": [float(x) for x in self.lambda1],
            "lambda2": [float(x) for x in self.lambda2],
            "collapsed_lambda2": [float(x) for x in self.collapsed_lambda2],
            "collapsed_vs_generic_max": float(self.collapsed_vs_generic_max),
            "prediction_deviations": [
                float(x) for x in self.prediction_deviations
            ],
            "fd_step": None if self.fd_step is None else float(self.fd_step),
        }
        if self.fd_lambda1 is not None:
            out["fd_lambda1"] = [float(x) for x in self.fd_lambda1]
            out["fd_lambda2"] = [float(x) for x in self.fd_lambda2]
        return out

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "max_prediction_deviation"])
            for t, dev in zip(self.t_grid, self.prediction_deviations):
                writer.writerow([repr(float(t)), repr(float(dev))])


def field_matrix_elements(spectral, f_values, n_modes=None):
    """A[i, n] = <psi_i, f psi_n> in the M0 inner product (symmetric)."""
    n = spectral.n_modes if n_modes is None else n_modes
    psi = spectral.eigenvectors[:, :n]
    weighted = (spectral.pair.mass * f_values)[:, None] * psi
    return psi.T @ weighted


def obstruction_map(spectral, basis_fields, n_modes, kernel_tol=DEFAULT_KERNEL_TOL):
    """SVD of the map from span(basis_fields) to N x N matrix elements.

    kernel_dim counts singular values at or below
    max(kernel_tol * sigma_max, 1e-10 * max field M0-norm); the absolute
    floor keeps an all-zero map (e.g. one zero-mean field against the
    constant mode alone) from masquerading as full rank.
    """
    if n_modes < 1 or n_modes > spectral.n_modes:
        raise ModeCountError(f"n_modes={n_modes} outside computed range")
    surface = spectral.pair.surface
    for f in basis_fields:
        if surface is not None and f.surface is not surface:
            raise SurfaceMismatchError("basis field on a different surface")
    fmat = np.column_stack([f.values for f in basis_fields])
    mass = spectral.pair.mass
    gram = fmat.T @ (mass[:, None] * fmat)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientBasisError(
            f"field basis Gram condition number {cond:.3e} exceeds 1e12"
        )
    columns = [
        field_matrix_elements(spectral, fmat[:, a], n_modes).ravel()
        for a in range(fmat.shape[1])
    ]
    tmat = np.column_stack(columns)
    singular = np.linalg.svd(tmat, compute_uv=False)
    norms = np.sqrt(np.diag(gram))
    threshold = max(kernel_tol * (singular[0] if singular.size else 0.0),
                    1e-10 * norms.max())
    kernel_dim = int(np.sum(singular <= threshold))
    kernel_dim += fmat.shape[1] - singular.size
    logger.info(
        "obstruction map: N=%d, D=%d, sigma range [%g, %g], kernel_dim=%d",
        n_modes,
        fmat.shape[1],
        singular[-1] if singular.size else 0.0,
        singular[0] if singular.size else 0.0,
        kernel_dim,
    )
    return ObstructionReport(
        n_modes=n_modes,
        field_dim=fmat.shape[1],
        singular_values=singular,
        kernel_dim=kernel_dim,
        kernel_tol=kernel_tol,
    )


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


def _positive_factor(values, label):
    if np.any(values <= 0.0):
        node = int(np.flatnonzero(values <= 0.0)[0])
        raise PositivityError(
            f"{label} nonpositive at node {node}", node_index=node
        )


def convexity_probe(surface, c1, c2, n_modes, tau_grid, tol_deg=eigen.DEFAULT_TOL_DEG):
    """Spectra along the inverse-metric segment tau*c1 + (1-tau)*c2.

    Deviations are measured against the tau = 0 endpoint (the c2 spectrum)
    as |lambda_n(tau) - lambda_n(0)| / (1 + |lambda_n(0)|), maximized over
    the first n_modes; the endpoint gap compares the two endpoint spectra
    the same way.  Each distinct tau is solved once, so endpoints on the
    grid reuse the spectra of their grid points.
    """
    if c1.surface is not surface or c2.surface is not surface:
        raise SurfaceMismatchError("conformal factors on a different surface")
    _positive_factor(c1.values, "endpoint factor c1")
    _positive_factor(c2.values, "endpoint factor c2")
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0 or np.any(taus < 0.0) or np.any(taus > 1.0):
        raise ValueError("tau_grid must be nonempty within [0, 1]")

    pair = assemble_base(surface)

    @functools.cache
    def blended_spectrum(tau):
        c = tau * c1.values + (1.0 - tau) * c2.values
        _positive_factor(c, f"blended factor at tau={tau!r}")
        blend = conformal_pair(pair, c)
        return eigen.solve(blend, n_modes, tol_deg).eigenvalues

    reference = blended_spectrum(0.0)
    other_end = blended_spectrum(1.0)
    scale = 1.0 + np.abs(reference)
    table = np.vstack([blended_spectrum(float(tau)) for tau in taus])
    deviations = np.abs(table - reference[None, :]) / scale[None, :]
    distances = deviations.max(axis=1)
    gap = float(np.max(np.abs(other_end - reference) / scale))
    return ConvexityProbeReport(
        tau_grid=taus,
        spectral_distances=distances,
        endpoints_isospectral_gap=gap,
        eigenvalues=table,
        deviations=deviations,
        n_modes=n_modes,
    )


def metric_side_probe(surface, f, n_modes, t_grid, tol_deg=eigen.DEFAULT_TOL_DEG):
    """Second-order pipeline for g = g0 (1 + t f) with its collapsed formula.

    Solves the full spectrum so the divided sums are untruncated, checks
    the collapsed metric-side second order
    lambda2_n = sum_i (lambda_n)^2 |<psi_i, f psi_n>|^2 / (lambda_n - lambda_i)
                + lambda1_n^2 / lambda_n,
    the sum over modes i outside the degeneracy group of n and the last
    term for lambda_n > 0 only, against the generic machinery, and
    compares the quadratic prediction with exact eigensolves at every t in
    t_grid.  The divided sum comes from the correction report itself:
    H1 = -f Delta0 makes each numerator E[i, n]^2, and psi1_coeffs[i, n] =
    E[i, n] / (lambda_n - lambda_i) on the cross-group mask, so each term
    is psi1_coeffs[i, n]^2 times the gap.  When t_grid contains a
    symmetric pair +-h around the smallest step, central finite
    differences for both corrections are reported as well.  Their centre
    value comes from a solve of the same shape as the +-h points (n_modes,
    extended to close the degeneracy group at the cut); the reported
    lambda0 still comes from the full solve.
    """
    if f.surface is not surface:
        raise SurfaceMismatchError("field on a different surface")
    t_grid = np.asarray(t_grid, dtype=float)
    pert = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, pair.node_count, tol_deg)
    ops = conformal_operators(pair, pert)
    report = compute_corrections(spectral, ops)

    lam = spectral.eigenvalues
    keep = _cross_group_mask(report.degeneracy_groups, lam.shape[0])
    coeffs = report.psi1_coeffs
    terms = coeffs * coeffs * (lam[None, :] - lam[:, None])
    in_group = np.divide(
        report.lambda1**2, lam, out=np.zeros_like(lam), where=lam > 0.0
    )
    collapsed = np.where(keep, terms, 0.0).sum(axis=0) + in_group

    scale = 1.0 + lam[:n_modes] ** 2
    collapsed_vs_generic = float(
        np.max(np.abs(collapsed[:n_modes] - report.lambda2[:n_modes]) / scale)
    )

    # always compare across complete degeneracy groups so branch pairing
    # between prediction and exact solves cannot straddle the cut
    n_eval = eigen.complete_group_count(report.degeneracy_groups, n_modes)
    deviations = np.empty(t_grid.shape[0])
    exact_cache = {}
    for k, t in enumerate(t_grid):
        exact_pair = exact_perturbed_pair(pair, pert, float(t))
        exact = eigen.solve(exact_pair, n_eval, tol_deg).eigenvalues
        exact_cache[float(t)] = exact
        predicted = predicted_spectrum(report, float(t))[:n_eval]
        gap = np.abs(predicted - exact) / (1.0 + np.abs(exact))
        deviations[k] = float(np.max(gap[:n_modes]))

    fd_step = fd1 = fd2 = None
    positive = sorted(t for t in exact_cache if t > 0.0)
    for h in positive:
        if -h in exact_cache:
            fd_step = h
            break
    if fd_step is not None:
        plus, minus = exact_cache[fd_step], exact_cache[-fd_step]
        fd1, fd2 = _central_differences(
            pair, report, plus, minus, fd_step, n_modes, tol_deg
        )

    return MetricProbeReport(
        t_grid=t_grid,
        lambda0=lam[:n_modes],
        lambda1=report.lambda1[:n_modes],
        lambda2=report.lambda2[:n_modes],
        collapsed_lambda2=collapsed[:n_modes],
        collapsed_vs_generic_max=collapsed_vs_generic,
        prediction_deviations=deviations,
        fd_step=fd_step,
        fd_lambda1=fd1,
        fd_lambda2=fd2,
    )


def _positions(perm):
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.shape[0])
    return pos


def finite_difference_corrections(
    pair, pert, report, h, n_modes=None, tol_deg=eigen.DEFAULT_TOL_DEG
):
    """Per-branch central differences of the exact eigenvalue family.

    Solves the exact problem at +-h, pairs ascending eigenvalues with the
    adapted branches on each side (runs of tied first-order corrections
    reverse for negative t), and returns (fd1, fd2): central-difference
    estimates of lambda1 and lambda2 per branch, comparable entrywise
    with the report (the raw second difference estimates the second
    t-derivative, which is twice lambda2).  The centre value comes from a
    solve of ``pair`` of the same shape as the +-h points, not from
    report.lambda0, which keeps the values of the caller's own solve.
    """
    if n_modes is None:
        n_modes = report.n_modes
    n_eval = eigen.complete_group_count(report.degeneracy_groups, n_modes)
    plus = eigen.solve(exact_perturbed_pair(pair, pert, h), n_eval, tol_deg)
    minus = eigen.solve(exact_perturbed_pair(pair, pert, -h), n_eval, tol_deg)
    return _central_differences(
        pair, report, plus.eigenvalues, minus.eigenvalues, h, n_modes, tol_deg
    )


def _central_differences(pair, report, plus, minus, h, n_modes, tol_deg):
    """(fd1, fd2) per branch from the ascending exact spectra at +-h.

    Ascending eigenvalues pair with the adapted branches on each side
    (runs of tied first-order corrections reverse for negative t).  The
    centre comes from a solve of the base pair for as many modes as the
    +-h spectra, so all three points take the same LAPACK path: a full
    and a subset solve of one matrix differ by a few ulp, which the
    division by h^2 would magnify far beyond the rounding of either.
    """
    centre = eigen.solve(pair, plus.shape[0], tol_deg).eigenvalues
    branches = np.arange(n_modes)
    lam_b = centre[branches]
    plus_b = plus[_positions(branch_permutation(report, 1.0))[branches]]
    minus_b = minus[_positions(branch_permutation(report, -1.0))[branches]]
    fd1 = (plus_b - minus_b) / (2.0 * h)
    fd2 = 0.5 * (plus_b - 2.0 * lam_b + minus_b) / h**2
    return fd1, fd2


def weyl_volume_estimate(spectral):
    """Area from the eigenvalue counting fit N(lambda) ~ (A / 4 pi) lambda."""
    n = spectral.n_modes
    if n < 50:
        raise InsufficientModesError(f"Weyl fit needs at least 50 modes, got {n}")
    lam = spectral.eigenvalues
    counts = np.arange(1, n + 1, dtype=float)
    denom = float(np.sum(lam * lam))
    if denom <= 0.0:
        raise InsufficientModesError("spectrum has no positive eigenvalues")
    return float(4.0 * np.pi * np.sum(counts * lam) / denom)


def default_field_basis(surface, dim, spectral=None, tol_deg=eigen.DEFAULT_TOL_DEG):
    """Low-frequency field basis: Fourier fields on the torus, low modes
    of the Laplacian itself on meshes."""
    if surface.kind is SurfaceKind.TORUS_GRID:
        return fourier_fields(surface, dim)
    if spectral is None:
        pair = assemble_base(surface)
        spectral = eigen.solve(pair, dim, tol_deg)
    if spectral.n_modes < dim:
        raise ModeCountError(f"need {dim} modes for the mesh field basis")
    return [
        ScalarField(surface, spectral.eigenvectors[:, a].copy())
        for a in range(dim)
    ]
