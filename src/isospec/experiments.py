"""Experiments on isospectral rigidity of conformal families.

Numerical embodiments of continuum statements, stated as such:

* The obstruction map sends a conformal factor to the matrix of its
  eigenfunction elements.  A trivial kernel over a finite field space is
  the discrete shadow of "only f = 0 perturbs isospectrally to first
  order"; it never claims the continuum result.
* The convexity probes blend two conformal factors along a segment and
  quantify how the interior spectra depart from the endpoint spectrum.
* The metric-side probe checks a collapsed second-order formula against
  the generic corrections and against exact eigensolves.

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
    check_positive,
    conformal_operators,
    conformal_pair,
    exact_perturbed_pair,
)
from .errors import (
    InsufficientModesError,
    ModeCountError,
    NumericalBreakdownError,
    RankDeficientBasisError,
    SurfaceMismatchError,
)
from .perturb import branch_permutation, compute_corrections, predicted_spectrum
from .surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    SurfaceKind,
    fourier_fields,
)

logger = logging.getLogger(__name__)

DEFAULT_KERNEL_TOL = 1e-8

WEYL_MIN_MODES = 50  # the fewest modes the Weyl counting fit accepts


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
    if not basis_fields:
        raise ValueError("basis_fields must hold at least one field")
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
    # a kernel_tol of 1 or more admits every singular value, which the
    # threshold still does when its product overflows to inf
    with np.errstate(over="ignore"):
        threshold = max(kernel_tol * singular[0], 1e-10 * norms.max())
    kernel_dim = int(np.sum(singular <= threshold))
    kernel_dim += fmat.shape[1] - singular.size
    logger.info(
        "obstruction map: N=%d, D=%d, sigma range [%g, %g], kernel_dim=%d",
        n_modes,
        fmat.shape[1],
        singular[-1],
        singular[0],
        kernel_dim,
    )
    return ObstructionReport(
        n_modes=n_modes,
        field_dim=fmat.shape[1],
        singular_values=singular,
        kernel_dim=kernel_dim,
        kernel_tol=kernel_tol,
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
    check_positive(c1.values, "endpoint factor c1")
    check_positive(c2.values, "endpoint factor c2")
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0 or not np.all((taus >= 0.0) & (taus <= 1.0)):
        raise ValueError("tau_grid must be a nonempty 1-D sequence within [0, 1]")

    pair = assemble_base(surface)

    def blend(tau):
        c = tau * c1.values + (1.0 - tau) * c2.values
        check_positive(c, f"blended factor at tau={tau!r}")
        return conformal_pair(pair, c)

    blended_spectrum = _exact_spectra(blend, n_modes, tol_deg)
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


@np.errstate(over="ignore", invalid="ignore")
def metric_side_probe(surface, f, n_modes, t_grid, tol_deg=eigen.DEFAULT_TOL_DEG):
    """Second-order pipeline for g = g0 (1 + t f) with its collapsed formula.

    On the window of n_modes closed at its last degeneracy group, checks
    the collapsed metric-side second order
    lambda2_n = sum_i (lambda_n)^2 |<psi_i, f psi_n>|^2 / (lambda_n - lambda_i)
                + lambda1_n^2 / lambda_n,
    the sum over modes i outside the group of n and the last term for
    lambda_n > 0 only, against the generic machinery, and compares the
    quadratic prediction with exact eigensolves at every t in t_grid.  With
    H1 = -f Delta0 the sum is the quadratic form <x, (lambda_g M0 - K) x>
    of the report's psi1_orthogonal column x, lambda_g the group mean.
    When t_grid contains a symmetric pair +-h, central finite differences
    for both corrections are reported as well, at the smallest such h and
    centred on the exact family at t = 0.  Each distinct t is solved once.
    A t_grid that is empty, not flat or not finite raises ValueError before
    any solve.
    Overflows raise NumericalBreakdownError without numpy warnings.
    """
    if f.surface is not surface:
        raise SurfaceMismatchError("field on a different surface")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be a nonempty, finite 1-D sequence")
    pert = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    pair = assemble_base(surface)
    ops = conformal_operators(pair, pert)
    spectral = eigen.solve_window(pair, n_modes, tol_deg)
    report = compute_corrections(spectral, ops)

    lam = spectral.eigenvalues
    lam_g = np.concatenate(
        [np.full(len(g), np.mean(lam[list(g)])) for g in report.degeneracy_groups]
    )
    x = report.psi1_orthogonal
    shifted = lam_g[None, :] * (pair.mass[:, None] * x) - pair.stiffness @ x
    in_group = np.divide(
        report.lambda1**2, lam, out=np.zeros_like(lam), where=lam > 0.0
    )
    collapsed = np.einsum("in,in->n", x, shifted) + in_group

    scale = 1.0 + lam[:n_modes] ** 2
    collapsed_vs_generic = float(
        np.max(np.abs(collapsed[:n_modes] - report.lambda2[:n_modes]) / scale)
    )

    # the window holds complete degeneracy groups, so branch pairing
    # between prediction and exact solves cannot straddle the cut
    n_eval = report.n_modes
    exact = _exact_spectra(lambda t: exact_perturbed_pair(pair, pert, t),
                           n_eval, tol_deg)
    deviations = np.empty(t_grid.shape[0])
    for k, t in enumerate(t_grid):
        spectrum = exact(float(t))
        predicted = predicted_spectrum(report, float(t))[:n_eval]
        gap = np.abs(predicted - spectrum) / (1.0 + np.abs(spectrum))
        deviations[k] = float(np.max(gap[:n_modes]))

    grid = {float(t) for t in t_grid}
    fd_step = min((h for h in grid if h > 0.0 and -h in grid), default=None)
    fd1 = fd2 = None
    if fd_step is not None:
        fd1, fd2 = _central_differences(report, exact, fd_step, n_modes)
    results = {
        "collapsed_lambda2": collapsed,
        "collapsed_vs_generic_max": collapsed_vs_generic,
        "prediction_deviations": deviations,
        "fd_lambda1": fd1,
        "fd_lambda2": fd2,
    }
    for name, values in results.items():
        if values is not None and not np.all(np.isfinite(values)):
            raise NumericalBreakdownError(f"metric probe {name} is not finite")

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


def finite_difference_corrections(
    pair, pert, report, h, n_modes=None, tol_deg=eigen.DEFAULT_TOL_DEG
):
    """Per-branch central differences of the exact eigenvalue family.

    Solves the exact problem at +-h and at t = 0, pairs ascending
    eigenvalues with the adapted branches on each side (runs of tied
    first-order corrections reverse for negative t), and returns (fd1,
    fd2): central-difference estimates of lambda1 and lambda2 per branch,
    comparable entrywise with the report (the raw second difference
    estimates the second t-derivative, which is twice lambda2).  The step
    h must be finite and positive with h*h > 0 (ValueError), and n_modes
    within [1, report.n_modes] (ModeCountError).
    """
    if n_modes is None:
        n_modes = report.n_modes
    if not 1 <= n_modes <= report.n_modes:
        raise ModeCountError(f"n_modes={n_modes} outside computed range")
    if not (np.isfinite(h) and h > 0.0 and h * h > 0.0):
        raise ValueError(f"step h={h!r} must be finite and positive, with h*h > 0")
    n_eval = eigen.complete_group_count(report.degeneracy_groups, n_modes)
    exact = _exact_spectra(lambda t: exact_perturbed_pair(pair, pert, t),
                           n_eval, tol_deg)
    return _central_differences(report, exact, h, n_modes)


def _exact_spectra(pair_at, n_modes, tol_deg):
    """Memoized t -> the n_modes lowest eigenvalues of pair_at(t), one solve
    per distinct t.  Every t is one eigen.solve, one window of the same ask
    trimmed, so every t takes the path (dense, or sliced on large surfaces)
    that the node count and n_modes pick, unless a solve falls back or its
    cut group outruns the dense ask: solves of one matrix that ask for
    different counts differ by a few ulp, which a second difference's
    division by h^2 would magnify far beyond the rounding of either."""
    @functools.cache
    def spectrum(t):
        return eigen.solve(pair_at(t), n_modes, tol_deg).eigenvalues

    return spectrum


def _central_differences(report, exact, h, n_modes):
    """(fd1, fd2) per branch from the exact family at +-h and its centre t = 0.

    Ascending eigenvalues pair with the adapted branches on each side
    (runs of tied first-order corrections reverse for negative t).  The
    centre is exact(0.0), not report.lambda0, which holds the values of
    the caller's own solve, of another shape.
    """
    plus, minus, centre = exact(h), exact(-h), exact(0.0)
    branches = np.arange(n_modes)
    lam_b = centre[branches]
    # argsort of a permutation is its inverse: the position of each branch
    plus_b = plus[np.argsort(branch_permutation(report, 1.0))[branches]]
    minus_b = minus[np.argsort(branch_permutation(report, -1.0))[branches]]
    fd1 = (plus_b - minus_b) / (2.0 * h)
    fd2 = 0.5 * (plus_b - 2.0 * lam_b + minus_b) / (h * h)
    return fd1, fd2


def weyl_volume_estimate(spectral):
    """Area from the eigenvalue counting fit N(lambda) ~ (A / 4 pi) lambda."""
    n = spectral.n_modes
    if n < WEYL_MIN_MODES:
        raise InsufficientModesError(
            f"Weyl fit needs at least {WEYL_MIN_MODES} modes, got {n}"
        )
    lam = spectral.eigenvalues
    counts = np.arange(1, n + 1, dtype=float)
    denom = float(np.sum(lam * lam))
    if denom <= 0.0:
        raise NumericalBreakdownError("spectrum has no positive eigenvalues")
    return float(4.0 * np.pi * np.sum(counts * lam) / denom)


def default_field_basis(surface, dim, spectral):
    """Low-frequency field basis: Fourier fields on the torus, the first
    dim modes of the surface's spectrum on meshes."""
    if surface.kind is SurfaceKind.TORUS_GRID:
        return fourier_fields(surface, dim)
    if spectral.n_modes < dim:
        raise ModeCountError(f"need {dim} modes for the mesh field basis")
    return [
        ScalarField(surface, spectral.eigenvectors[:, a].copy())
        for a in range(dim)
    ]
