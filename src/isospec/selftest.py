"""Reduced-size built-in acceptance checks for the command line selftest.

Each check mirrors one criterion of the full test suite at a size that
runs in seconds.  Output is deterministic: fixed seeds, no timing, one
PASS/FAIL line per check.  The eigensolver is always reached through the
eigen module attribute so fault-injection tests can corrupt it.
"""

from __future__ import annotations

import numpy as np

from . import eigen
from .assembly import (
    PerturbationOperators,
    assemble_base,
    conformal_operators,
    exact_perturbed_pair,
)
from .experiments import (
    convexity_probe,
    field_matrix_elements,
    finite_difference_corrections,
    metric_side_probe,
    obstruction_map,
    weyl_volume_estimate,
)
from .perturb import compute_corrections, predicted_spectrum
from .surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    field_from_expression,
    fourier_fields,
    icosphere_arrays,
    make_torus,
    mesh_from_arrays,
)

CHECKS = []


def _check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn

    return register


def _torus_setup(nx, f1_expr, n_modes=None, side=PerturbationSide.INVERSE_METRIC):
    surface = make_torus(nx, nx, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, pair.node_count if n_modes is None else n_modes)
    pert = ConformalPerturbation(side=side, f1=field_from_expression(surface, f1_expr))
    ops = conformal_operators(pair, pert)
    return surface, pair, spectral, pert, ops


@_check("torus-spectrum-closed-form")
def _torus_spectrum(rng):
    nx = 16
    surface = make_torus(nx, nx, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 30)
    h = 1.0 / nx
    symbol = []
    for m in range(-4, 5):
        for n in range(-4, 5):
            symbol.append(
                (2.0 / h**2)
                * (2.0 - np.cos(2 * np.pi * m * h) - np.cos(2 * np.pi * n * h))
            )
    symbol = np.sort(np.array(symbol))[:30]
    err = np.abs(spectral.eigenvalues - symbol) / (1.0 + symbol)
    assert err.max() <= 1e-10, f"symbol mismatch {err.max():.3e}"


@_check("first-order-vs-finite-difference")
def _first_order_fd(rng):
    _, pair, spectral, pert, ops = _torus_setup(16, "cos(2*pi*x)")
    report = compute_corrections(spectral, ops)
    fd1, _ = finite_difference_corrections(pair, pert, report, 1e-4, n_modes=13)
    lam = report.lambda0[:13]
    err = np.abs(report.lambda1[:13] - fd1) / (1.0 + np.abs(lam))
    assert err.max() <= 1e-5, f"first-order mismatch {err.max():.3e}"


@_check("second-order-vs-finite-difference")
def _second_order_fd(rng):
    _, pair, spectral, pert, ops = _torus_setup(16, "cos(2*pi*x)")
    report = compute_corrections(spectral, ops)
    _, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, n_modes=13)
    lam = report.lambda0[:13]
    err = np.abs(report.lambda2[:13] - fd2) / (1.0 + np.abs(lam))
    assert err.max() <= 1e-3, f"second-order mismatch {err.max():.3e}"


@_check("inner-product-independence")
def _g_independence(rng):
    surface, pair, spectral, pert, ops = _torus_setup(12, "cos(2*pi*y)")
    base = compute_corrections(spectral, ops)
    for _ in range(3):
        hacked = PerturbationOperators(
            pair=pair,
            h1_multiplier=ops.h1_multiplier,
            h2_multiplier=ops.h2_multiplier,
            g1=rng.standard_normal(pair.node_count),
            g2=rng.standard_normal(pair.node_count),
        )
        other = compute_corrections(spectral, hacked)
        assert np.array_equal(base.lambda1, other.lambda1), "lambda1 moved"
        assert np.array_equal(base.lambda2, other.lambda2), "lambda2 moved"
        offdiag = other.psi1_coeffs - np.diag(np.diag(other.psi1_coeffs))
        base_off = base.psi1_coeffs - np.diag(np.diag(base.psi1_coeffs))
        assert np.array_equal(offdiag, base_off), "off-diagonal coeffs moved"


@_check("degenerate-branch-tracking")
def _degenerate_tracking(rng):
    _, pair, spectral, pert, ops = _torus_setup(16, "cos(2*pi*x)")
    report = compute_corrections(spectral, ops)
    steps = np.array([1e-2, 5e-3, 2.5e-3])
    errs = []
    for t in steps:
        exact = eigen.solve(exact_perturbed_pair(pair, pert, t), 13).eigenvalues
        pred = predicted_spectrum(report, t)[:13]
        errs.append(np.abs(pred - exact).max())
    slope = np.polyfit(np.log(steps), np.log(np.maximum(errs, 1e-300)), 1)[0]
    assert slope >= 2.7, f"error slope {slope:.2f} below cubic"


@_check("obstruction-kernel-trivial")
def _obstruction(rng):
    surface = make_torus(16, 16, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 16)
    basis = fourier_fields(surface, 9)
    previous = None
    for n_modes in (2, 6, 13):
        rep = obstruction_map(spectral, basis, n_modes)
        if previous is not None:
            assert rep.kernel_dim <= previous, "kernel dimension grew with modes"
        previous = rep.kernel_dim
    assert previous == 0, f"kernel dimension {previous} at 13 modes"
    rep = obstruction_map(spectral, basis, 13)
    ratio = rep.singular_values[-1] / rep.singular_values[0]
    assert ratio > 1e-6, f"sigma ratio {ratio:.3e}"


@_check("convexity-segment-deviation")
def _convexity(rng):
    surface = make_torus(12, 12, 1.0, 1.0)
    taus = np.array([0.0, 0.5, 1.0])
    coords = surface.node_coordinates()
    for _ in range(3):
        w1 = rng.normal(size=3)
        w2 = rng.normal(size=3)

        def factor(w):
            phase = 2.0 * np.pi * (coords["x"] + coords["y"])
            bump = (
                w[0] * np.cos(2.0 * np.pi * coords["x"])
                + w[1] * np.sin(2.0 * np.pi * coords["y"])
                + w[2] * np.cos(phase)
            )
            return ScalarField(surface, np.exp(0.2 * bump))

        rep = convexity_probe(surface, factor(w1), factor(w2), 8, taus)
        both_flat = rep.endpoints_isospectral_gap <= 1e-10 and bool(
            np.all(rep.spectral_distances <= 1e-10)
        )
        assert not both_flat, "distinct endpoints reported as isospectral line"
    c = ScalarField(surface, np.full(surface.node_count, 1.3))
    rep = convexity_probe(surface, c, c, 8, taus)
    assert np.all(rep.spectral_distances <= 1e-12), "equal endpoints deviate"


@_check("squared-elements-identity")
def _identity(rng):
    surface = make_torus(12, 12, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, pair.node_count)
    # constrain a Fourier combination so its matrix elements vanish on
    # every within-group block of the low part of the spectrum
    basis = fourier_fields(surface, 40)[1:]
    n_zero = 13
    psi = spectral.eigenvectors
    rows = []
    for members in spectral.degeneracy_groups:
        if members[-1] >= n_zero:
            break
        for a in members:
            for b in members:
                if b < a:
                    continue
                probe = pair.mass * psi[:, a] * psi[:, b]
                rows.append([float(probe @ f.values) for f in basis])
    _, _, vt = np.linalg.svd(np.array(rows))
    weights = vt[-1]
    f_values = sum(w * f.values for w, f in zip(weights, basis))
    f_values /= np.abs(f_values).max()
    elements = field_matrix_elements(spectral, f_values)
    fsq = np.einsum(
        "in,in->n",
        spectral.eigenvectors,
        (pair.mass * f_values**2)[:, None] * spectral.eigenvectors,
    )
    sums = (elements**2).sum(axis=0) - np.diag(elements) ** 2
    gap = np.abs(fsq[:n_zero] - sums[:n_zero]).max()
    assert gap <= 1e-9, f"completeness identity off by {gap:.3e}"

    probe = metric_side_probe(
        surface, ScalarField(surface, f_values), n_zero, np.array([1e-3, -1e-3])
    )
    assert probe.collapsed_vs_generic_max <= 1e-9, (
        f"collapsed form off by {probe.collapsed_vs_generic_max:.3e}"
    )


@_check("mesh-backend-parity")
def _mesh_parity(rng):
    surface = mesh_from_arrays(*icosphere_arrays(1))
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, pair.node_count)
    coords = surface.node_coordinates()
    f = ScalarField(surface, 0.3 * coords["x"] * coords["y"])
    pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
    ops = conformal_operators(pair, pert)
    report = compute_corrections(spectral, ops)
    fd1, fd2 = finite_difference_corrections(pair, pert, report, 1e-4, n_modes=9)
    lam = report.lambda0[:9]
    err1 = np.abs(report.lambda1[:9] - fd1) / (1.0 + np.abs(lam))
    assert err1.max() <= 1e-4, f"mesh first-order mismatch {err1.max():.3e}"
    _, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, n_modes=9)
    err2 = np.abs(report.lambda2[:9] - fd2) / (1.0 + np.abs(lam))
    assert err2.max() <= 1e-2, f"mesh second-order mismatch {err2.max():.3e}"


@_check("weyl-area-fit")
def _weyl(rng):
    surface = make_torus(32, 32, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 100)
    area = weyl_volume_estimate(spectral)
    assert abs(area - 1.0) <= 0.15, f"fitted area {area:.3f}"


def run_selftest(seed=0, stream=None):
    """Run all reduced checks; print one line per check; return exit code."""
    failures = 0
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            fn(rng)
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"PASS {name}", file=stream)
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed", file=stream)
    return 0 if failures == 0 else 1
