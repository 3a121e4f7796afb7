"""The ten acceptance criteria, written once and run at two sizes.

Each criterion is one function of a ``Setups`` cache and keyword data
(sizes, fields, counts, seed) that raises AssertionError on failure,
through ``_require``, so the checks survive ``python -O``.
``isospec selftest`` runs ``reduced_criteria`` in about a second, one
deterministic PASS/FAIL line per check; tests/test_acceptance.py runs the
same functions on full-size data.  The eigensolver is always reached
through the eigen module attribute so fault-injection tests can corrupt it.

Surfaces are keys: ("torus", n) is the n x n unit torus, ("icosphere",
level) the subdivided icosahedron.  A field spec is an expression (str),
the seed of a smooth random field (int) or a slice of the Fourier basis.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import eigen
from .assembly import assemble_base, conformal_operators, exact_perturbed_pair
from .experiments import (
    convexity_probe, field_matrix_elements, finite_difference_corrections,
    metric_side_probe, obstruction_map, weyl_volume_estimate,
)
from .perturb import adapt_degenerate_basis, compute_corrections, predicted_spectrum
from .surface import (
    ConformalPerturbation, PerturbationSide, ScalarField, field_from_expression,
    fourier_fields, icosphere_arrays, make_torus, mesh_from_arrays,
)


def _require(condition, message):
    """Raise AssertionError(message) unless condition holds."""
    if not condition:
        raise AssertionError(message)


class Setups:
    """Base pairs and spectra shared by the criteria of one run, each built
    inside the first criterion that needs it."""

    def __init__(self):
        self._pairs = {}
        self._spectra = {}

    def pair(self, key):
        if key not in self._pairs:
            kind, size = key
            surface = (make_torus(size, size, 1.0, 1.0) if kind == "torus"
                       else mesh_from_arrays(*icosphere_arrays(size)))
            self._pairs[key] = assemble_base(surface)
        return self._pairs[key]

    def spectrum(self, key, n_modes=None):
        """Every mode of the base pair of key, or the lowest n_modes extended
        to close the degeneracy group they end in."""
        if (key, n_modes) not in self._spectra:
            pair = self.pair(key)
            self._spectra[key, n_modes] = eigen.solve_window(
                pair, n_modes or pair.node_count)
        return self._spectra[key, n_modes]


def smooth_random_field(surface, seed, count=26, amplitude=1.0):
    """Fourier fields 1..count-1 with seeded normal weights decaying as 1/k."""
    rng = np.random.default_rng(seed)
    fields = fourier_fields(surface, count)[1:]
    coeffs = rng.standard_normal(len(fields)) / np.arange(2.0, len(fields) + 2.0)
    values = np.zeros(surface.node_count)
    for c, f in zip(coeffs, fields):
        values += c * f.values
    values *= amplitude / np.abs(values).max()
    return ScalarField(surface, values)


def _fields(surface, spec):
    """The fields named by spec (see the module docstring)."""
    if isinstance(spec, slice):
        return fourier_fields(surface, spec.stop)[spec]
    return [smooth_random_field(surface, s) if isinstance(s, int)
            else field_from_expression(surface, s) for s in spec]


def _perturbation(pair, spec):
    """(perturbation, operators) of the inverse-metric field named by spec."""
    f1 = _fields(pair.surface, [spec])[0]
    pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f1)
    return pert, conformal_operators(pair, pert)


def torus_spectrum(setups, nx, n_modes):
    """Lowest levels of the nx x nx unit torus against the 5-point symbol.

    The eigenvalues match the symbol, the degeneracy groups match its
    multiplicities, and each level misses the continuum 4 pi^2 (m^2 + n^2)
    by 0.8 to 1.05 times the predicted O(h^2) error.
    """
    h = 1.0 / nx
    spectral = eigen.solve(setups.pair(("torus", nx)), n_modes)
    k = np.minimum(np.arange(nx), nx - np.arange(nx))  # |frequency| per index
    c = np.cos(2.0 * np.pi * k * h)
    band = (2.0 / h**2) * (2.0 - c[:, None] - c[None, :])
    order = np.argsort(band, axis=None, kind="stable")[:n_modes]
    symbol = band.ravel()[order]
    err = np.abs(spectral.eigenvalues - symbol) / (1.0 + symbol)
    _require(err.max() <= 1e-10, f"symbol mismatch {err.max():.3e}")

    # a level is the set of frequencies (m, n) with the same {|m|, |n|}
    index = np.column_stack(np.divmod(order, nx))
    freqs = [tuple(p) for p in np.sort(k[index], axis=1)]
    levels = [p for i, p in enumerate(freqs) if i == 0 or p != freqs[i - 1]]
    sizes = [freqs.count(p) for p in levels]
    got = [len(g) for g in spectral.degeneracy_groups]
    _require(got == sizes, f"group sizes {got}, symbol gives {sizes}")
    # the ground level (0, 0) comes first; the symbol check bounds it by 1e-10
    for (m, n), members in zip(levels[1:], spectral.degeneracy_groups[1:]):
        level = float(np.mean(spectral.eigenvalues[list(members)]))
        s = m * m + n * n
        rel = abs(level - 4.0 * np.pi**2 * s) / (4.0 * np.pi**2 * s)
        ratio = rel / (np.pi**2 * h**2 * (m**4 + n**4) / (3.0 * s))
        _require(0.8 <= ratio <= 1.05, f"level ({m}, {n}) continuum ratio {ratio:.3f}")


def finite_differences(setups, surface, fields, n_modes, order, bounds=(1e-5, 1e-3)):
    """Corrections of one order against central differences, modes 0..n_modes-1.

    The steps are 1e-4 and 1e-3; bounds[order - 1] bounds the gap scaled by
    1 + min(|correction|, lambda0), the stricter of the two usual scales.
    """
    spectral = setups.spectrum(surface, n_modes)
    for spec in fields:
        pert, ops = _perturbation(spectral.pair, spec)
        report = compute_corrections(spectral, ops)
        step = (1e-4, 1e-3)[order - 1]
        fds = finite_difference_corrections(spectral.pair, pert, report, step, n_modes)
        fd = fds[order - 1]
        ours = (report.lambda1, report.lambda2)[order - 1][:n_modes]
        scale = 1.0 + np.minimum(np.abs(ours), report.lambda0[:n_modes])
        err = (np.abs(fd - ours) / scale).max()
        _require(err <= bounds[order - 1], f"order-{order} mismatch {err:.3e}")


def g_independence(setups, surface, field, trials, seed, diag_bound=1e-12):
    """Random G1, G2 leave lambda1, lambda2 and the M0-orthogonal psi1 bit-identical.

    The normalization coefficient of psi1 stays -1/2 <psi, G1 psi> in the
    adapted basis, within diag_bound relative to 1 + |value|.
    """
    spectral = setups.spectrum(surface)
    pair = spectral.pair
    _, ops = _perturbation(pair, field)
    base = compute_corrections(spectral, ops)
    # the adaptation reads no G, so one adapted basis serves every trial
    adapted = adapt_degenerate_basis(spectral, ops).eigenvectors
    rng = np.random.default_rng(seed)
    n = pair.node_count
    for _ in range(trials):
        hacked = replace(ops, g1=rng.standard_normal(n), g2=rng.standard_normal(n))
        rep = compute_corrections(spectral, hacked)
        _require(np.array_equal(rep.lambda1, base.lambda1), "lambda1 moved")
        _require(np.array_equal(rep.lambda2, base.lambda2), "lambda2 moved")
        same = np.array_equal(rep.psi1_orthogonal, base.psi1_orthogonal)
        _require(same, "orthogonal psi1 moved")
        weight = (pair.mass * hacked.g1)[:, None]
        expected = -0.5 * np.sum(adapted * weight * adapted, axis=0)
        gap = np.abs(rep.psi1_normalization - expected) / (1.0 + np.abs(expected))
        _require(gap.max() <= diag_bound, f"psi1 diagonal off by {gap.max():.3e}")


def degenerate_tracking(setups, surface, fields, n_modes):
    """Predictions track the exact branches at O(t^3) (log-log slope >= 2.7).

    fields holds (spec, split) pairs; a split other than None requires the
    first excited level (modes 1-4) to spread by more than it at first order.
    """
    spectral = setups.spectrum(surface, n_modes)
    steps = (1e-2, 5e-3, 2.5e-3)
    for spec, split in fields:
        pert, ops = _perturbation(spectral.pair, spec)
        report = compute_corrections(spectral, ops)
        if split is not None:
            spread = np.ptp(report.lambda1[1:5])
            _require(spread > split, f"first excited level split {spread:.3e}")
        errs = []
        for t in steps:
            exact = eigen.solve(exact_perturbed_pair(spectral.pair, pert, t), n_modes)
            pred = predicted_spectrum(report, t)[:n_modes]
            errs.append(np.abs(pred - exact.eigenvalues).max())
        _require(errs[-1] > 1e-12, f"error {errs[-1]:.3e} at solver noise")
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        _require(slope >= 2.7, f"error slope {slope:.2f} below cubic")


def obstruction_kernel(setups, surface, n_modes, basis, windows):
    """Kernel dimension never grows over the windows and is 0 at the last."""
    pair = setups.pair(surface)
    spectral = eigen.solve(pair, n_modes)
    fields = _fields(pair.surface, basis)
    reps = [obstruction_map(spectral, fields, window) for window in windows]
    dims = [rep.kernel_dim for rep in reps]
    _require(all(a >= b for a, b in zip(dims, dims[1:])), f"kernel dimensions {dims} grow")
    _require(dims[-1] == 0, f"kernel dimension {dims[-1]} at {windows[-1]} modes")
    ratio = reps[-1].singular_values[-1] / reps[-1].singular_values[0]
    _require(ratio > 1e-6, f"sigma ratio {ratio:.3e}")


def no_flat_segments(
    setups, surface, n_modes, taus, trials, seed, bump, amplitude, unit_peak
):
    """Random endpoint pairs never bound an isospectral segment.

    A factor is exp(amplitude * b) for a normal-weighted sum b of the
    fields named by bump, scaled to peak 1 when unit_peak.  Equal
    endpoints (the constant 1.3, then one more random factor, each with
    a copy of itself) deviate by at most 1e-12.
    """
    surface = setups.pair(surface).surface
    fields = _fields(surface, bump)
    rng = np.random.default_rng(seed)

    def factor():
        b = sum(w * f.values for w, f in zip(rng.standard_normal(len(fields)), fields))
        if unit_peak:
            b = b / np.abs(b).max()
        return ScalarField(surface, np.exp(amplitude * b))

    for _ in range(trials):
        rep = convexity_probe(surface, factor(), factor(), n_modes, taus)
        flat_ends = rep.endpoints_isospectral_gap <= 1e-10
        flat_inside = rep.spectral_distances.max() <= 1e-10
        _require(not (flat_ends and flat_inside),
                 "distinct endpoints bound a flat segment")
    for same in (ScalarField(surface, np.full(surface.node_count, 1.3)), factor()):
        twin = ScalarField(surface, same.values.copy())
        rep = convexity_probe(surface, same, twin, n_modes, taus)
        _require(rep.spectral_distances.max() <= 1e-12, "equal endpoints deviate")


def square_sum_identity(setups, surface, n_zero, basis):
    """A field with vanishing within-group blocks on the first n_zero modes.

    Its squared matrix elements sum, off the diagonal, to <psi, f^2 psi>,
    and the metric-side collapsed second order matches the generic one.
    """
    spectral = setups.spectrum(surface)
    psi = spectral.eigenvectors
    mass = spectral.pair.mass
    fmat = np.column_stack([f.values for f in _fields(spectral.pair.surface, basis)])
    low = [g for g in spectral.degeneracy_groups if g[-1] < n_zero]
    pairs = [(a, b) for g in low for a in g for b in g if a <= b]
    rows = [fmat.T @ (mass * psi[:, a] * psi[:, b]) for a, b in pairs]
    _, sing, vt = np.linalg.svd(np.vstack(rows))
    null_dim = fmat.shape[1] - sing.size + int(np.sum(sing <= 1e-10))
    _require(null_dim >= 1, "no field with vanishing blocks")
    values = fmat @ vt[-1]
    values /= np.abs(values).max()

    elements = field_matrix_elements(spectral, values)
    for g in low:
        block = np.abs(elements[np.ix_(g, g)]).max()
        _require(block <= 1e-10, f"within-group block {block:.3e}")
    for n in range(n_zero):
        lhs = float(psi[:, n] @ (mass * values**2 * psi[:, n]))
        rhs = float((elements[:, n] ** 2).sum() - elements[n, n] ** 2)
        _require(abs(lhs - rhs) <= 1e-9, f"completeness identity off by {lhs - rhs:.3e}")

    field = ScalarField(spectral.pair.surface, values)
    probe = metric_side_probe(field.surface, field, n_zero, (1e-3, -1e-3))
    gap = probe.collapsed_vs_generic_max
    _require(gap <= 1e-9, f"collapsed form off by {gap:.3e}")


def mesh_parity(setups, surface, fields, n_modes, trials, seed):
    """Criteria 2, 3 and 4 replayed on a mesh at ten times their bounds;
    the G replay uses the last field."""
    _require(setups.pair(surface).node_count <= 1000, "mesh too large for full solves")
    for order in (1, 2):
        finite_differences(setups, surface, fields, n_modes, order, bounds=(1e-4, 1e-2))
    g_independence(setups, surface, fields[-1], trials, seed, diag_bound=1e-11)


def weyl_area(setups, nx, n_modes):
    """The counting fit of n_modes levels recovers the unit area within 15%."""
    area = weyl_volume_estimate(eigen.solve(setups.pair(("torus", nx)), n_modes))
    _require(abs(area - 1.0) <= 0.15, f"fitted area {area:.3f}")


def reduced_criteria(seed):
    """(name, check, data) of the ten criteria at selftest size."""
    torus12, torus16 = ("torus", 12), ("torus", 16)
    return [
        ("torus-spectrum-closed-form", torus_spectrum, dict(nx=16, n_modes=30)),
        ("first-order-vs-finite-difference", finite_differences,
         dict(surface=torus16, fields=["cos(2*pi*x)"], n_modes=13, order=1)),
        ("second-order-vs-finite-difference", finite_differences,
         dict(surface=torus16, fields=["cos(2*pi*x)"], n_modes=13, order=2)),
        ("inner-product-independence", g_independence,
         dict(surface=torus12, field="cos(2*pi*y)", trials=3, seed=seed)),
        # cos(2*pi*x) leaves the first excited level tied at first order
        ("degenerate-branch-tracking", degenerate_tracking,
         dict(surface=torus16, fields=[("cos(2*pi*x)", None)], n_modes=13)),
        ("obstruction-kernel-trivial", obstruction_kernel,
         dict(surface=torus16, n_modes=16, basis=slice(0, 9), windows=(2, 6, 13))),
        ("convexity-segment-deviation", no_flat_segments,
         dict(surface=torus12, n_modes=8, taus=(0.0, 0.5, 1.0), trials=3, seed=seed,
              bump=["cos(2*pi*x)", "sin(2*pi*y)", "cos(2*pi*(x+y))"],
              amplitude=0.2, unit_peak=False)),
        ("squared-elements-identity", square_sum_identity,
         dict(surface=torus12, n_zero=13, basis=slice(1, 40))),
        ("mesh-backend-parity", mesh_parity,
         dict(surface=("icosphere", 1), fields=["0.3*x*y"], n_modes=9, trials=3,
              seed=seed)),
        ("weyl-area-fit", weyl_area, dict(nx=32, n_modes=100)),
    ]


def run_selftest(seed=0, stream=None):
    """Run all reduced checks; print one line per check; return exit code."""
    setups = Setups()
    checks = reduced_criteria(seed)
    failures = 0
    for name, check, data in checks:
        try:
            check(setups, **data)
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"PASS {name}", file=stream)
    print(f"{len(checks) - failures}/{len(checks)} checks passed", file=stream)
    return 0 if failures == 0 else 1
