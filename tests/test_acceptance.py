"""Acceptance battery: one test per criterion, each pinning its tolerances.

Each test prints its own PASS/FAIL verdict line (visible with -v through
the per-test outcome, and with -s as an explicit line), so a full run of
this file reads as ten pass/fail lines.  The heavyweight solves happen
inside the timed sections of the criteria that carry runtime budgets.
"""

import time

import numpy as np
import pytest

from isospec import eigen
from isospec.assembly import (
    OperatorPair,
    assemble_base,
    conformal_operators,
    exact_perturbed_pair,
    PerturbationOperators,
)
from isospec.experiments import (
    convexity_probe,
    field_matrix_elements,
    finite_difference_corrections,
    metric_side_probe,
    obstruction_map,
    weyl_volume_estimate,
)
from isospec.perturb import (
    adapt_degenerate_basis,
    compute_corrections,
    predicted_spectrum,
)
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    field_from_expression,
    fourier_fields,
    load_mesh,
    make_torus,
)


def verdict(number, label):
    def report(ok):
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")

    return report


def smooth_random_field(surface, seed, count=26, amplitude=1.0):
    rng = np.random.default_rng(seed)
    fields = fourier_fields(surface, count)[1:]
    coeffs = rng.standard_normal(len(fields)) / np.arange(2.0, len(fields) + 2.0)
    values = np.zeros(surface.node_count)
    for c, f in zip(coeffs, fields):
        values += c * f.values
    values *= amplitude / np.abs(values).max()
    return ScalarField(surface, values)


def scaled_gap(a, b):
    return np.abs(a - b) / (1.0 + np.abs(b))


@pytest.fixture(scope="module")
def torus32():
    return make_torus(32, 32, 1.0, 1.0)


@pytest.fixture(scope="module")
def pair32(torus32):
    return assemble_base(torus32)


@pytest.fixture(scope="module")
def spectral32_full(pair32):
    return eigen.solve(pair32, pair32.node_count)


@pytest.fixture(scope="module")
def torus24():
    return make_torus(24, 24, 1.0, 1.0)


@pytest.fixture(scope="module")
def pair24(torus24):
    return assemble_base(torus24)


@pytest.fixture(scope="module")
def spectral24_full(pair24):
    return eigen.solve(pair24, pair24.node_count)


@pytest.fixture(scope="module")
def torus16a():
    return make_torus(16, 16, 1.0, 1.0)


@pytest.fixture(scope="module")
def pair16a(torus16a):
    return assemble_base(torus16a)


@pytest.fixture(scope="module")
def spectral16_full(pair16a):
    return eigen.solve(pair16a, pair16a.node_count)


def test_criterion_01_torus_spectrum_oracle():
    note = verdict(1, "32x32 torus levels match the 5-point symbol and continuum")
    try:
        started = time.monotonic()
        nx = 32
        h = 1.0 / nx
        surface = make_torus(nx, nx, 1.0, 1.0)
        pair = assemble_base(surface)
        spectral = eigen.solve(pair, 49)

        freqs = np.arange(nx)
        band = (2.0 / h**2) * (
            2.0
            - np.cos(2.0 * np.pi * freqs * h)[:, None]
            - np.cos(2.0 * np.pi * freqs * h)[None, :]
        )
        expected = np.sort(band.ravel())[:49]
        assert np.all(scaled_gap(spectral.eigenvalues, expected) <= 1e-10)

        # ten distinct levels, realized by sums of two squares: 3, 6, 7
        # are skipped because they are not representable
        reps = {
            0: (0, 0), 1: (1, 0), 2: (1, 1), 4: (2, 0), 5: (2, 1),
            8: (2, 2), 9: (3, 0), 10: (3, 1), 13: (3, 2), 16: (4, 0),
        }
        groups = spectral.degeneracy_groups
        assert len(groups) == 10
        sizes = [len(g) for g in groups]
        assert sizes == [1, 4, 4, 4, 8, 4, 4, 8, 8, 4]
        for (s, (m, n)), members in zip(sorted(reps.items()), groups):
            level = float(np.mean(spectral.eigenvalues[list(members)]))
            if s == 0:
                assert abs(level) <= 1e-10
                continue
            continuum = 4.0 * np.pi**2 * s
            rel = abs(level - continuum) / continuum
            predicted = np.pi**2 * h**2 * (m**4 + n**4) / (3.0 * s)
            assert rel <= 1.05 * predicted
            assert rel >= 0.8 * predicted
        assert time.monotonic() - started <= 10.0
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_02_first_order_vs_finite_differences(request):
    note = verdict(2, "first-order corrections match h=1e-4 central differences")
    try:
        started = time.monotonic()
        torus = request.getfixturevalue("torus32")
        pair = request.getfixturevalue("pair32")
        spectral = request.getfixturevalue("spectral32_full")
        fields = [
            field_from_expression(torus, "cos(2*pi*x)"),
            field_from_expression(torus, "cos(2*pi*x)*cos(2*pi*y)"),
            smooth_random_field(torus, seed=11),
        ]
        for f in fields:
            pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
            ops = conformal_operators(pair, pert)
            report = compute_corrections(spectral, ops)
            fd1, _ = finite_difference_corrections(pair, pert, report, 1e-4, 16)
            err = scaled_gap(fd1[1:16], report.lambda1[1:16])
            assert err.max() <= 1e-5
        assert time.monotonic() - started <= 30.0
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_03_second_order_vs_finite_differences(request):
    note = verdict(3, "second-order corrections match h=1e-3 second differences")
    try:
        started = time.monotonic()
        torus = request.getfixturevalue("torus24")
        pair = request.getfixturevalue("pair24")
        spectral = request.getfixturevalue("spectral24_full")
        fields = [
            field_from_expression(torus, "cos(2*pi*x)"),
            field_from_expression(torus, "cos(2*pi*x)*cos(2*pi*y)"),
            smooth_random_field(torus, seed=11),
        ]
        for f in fields:
            pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
            ops = conformal_operators(pair, pert)
            report = compute_corrections(spectral, ops)
            _, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, 16)
            err = scaled_gap(fd2[1:16], report.lambda2[1:16])
            assert err.max() <= 1e-3
        assert time.monotonic() - started <= 60.0
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_04_gauge_independence(request):
    note = verdict(4, "random G leave eigenvalue corrections bit-identical")
    try:
        torus = request.getfixturevalue("torus16a")
        pair = request.getfixturevalue("pair16a")
        spectral = request.getfixturevalue("spectral16_full")
        f = smooth_random_field(torus, seed=5)
        pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
        ops = conformal_operators(pair, pert)
        base = compute_corrections(spectral, ops)
        off_diag = ~np.eye(base.psi1_coeffs.shape[0], dtype=bool)

        rng = np.random.default_rng(20240817)
        n = pair.node_count
        for _ in range(20):
            hacked = PerturbationOperators(
                pair=pair,
                h1_multiplier=ops.h1_multiplier,
                h2_multiplier=ops.h2_multiplier,
                g1=rng.standard_normal(n),
                g2=rng.standard_normal(n),
            )
            rep = compute_corrections(spectral, hacked)
            assert np.array_equal(rep.lambda1, base.lambda1)
            assert np.array_equal(rep.lambda2, base.lambda2)
            assert np.array_equal(
                rep.psi1_coeffs[off_diag], base.psi1_coeffs[off_diag]
            )
            adapted = adapt_degenerate_basis(spectral, hacked).eigenvectors
            for k in range(spectral.n_modes):
                psi = adapted[:, k]
                expected = -0.5 * float(psi @ (pair.mass * (hacked.g1 * psi)))
                assert abs(rep.psi1_coeffs[k, k] - expected) <= 1e-12 * (
                    1.0 + abs(expected)
                )
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_05_degenerate_tracking_is_cubic(request):
    note = verdict(5, "adapted corrections track exact branches at O(t^3)")
    try:
        torus = request.getfixturevalue("torus24")
        pair = request.getfixturevalue("pair24")
        spectral = request.getfixturevalue("spectral24_full")
        fields = [
            field_from_expression(torus, "cos(4*pi*x)"),
            smooth_random_field(torus, seed=7),
        ]
        ts = np.array([1e-2, 5e-3, 2.5e-3])
        for f in fields:
            pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
            report = compute_corrections(spectral, conformal_operators(pair, pert))
            # the first excited level must genuinely split at first order
            assert np.ptp(report.lambda1[1:5]) > 1e-3
            devs = []
            for t in ts:
                exact = eigen.solve(
                    exact_perturbed_pair(pair, pert, float(t)), 5
                ).eigenvalues
                predicted = predicted_spectrum(report, float(t))[:5]
                devs.append(np.abs(predicted - exact).max())
            devs = np.array(devs)
            assert devs[-1] > 1e-12  # above solver noise, slope is meaningful
            slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
            assert slope >= 2.7
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_06_obstruction_kernel_trivial(request):
    note = verdict(6, "Fourier obstruction map has trivial kernel at N=20")
    try:
        torus = request.getfixturevalue("torus32")
        pair = request.getfixturevalue("pair32")
        spectral = eigen.solve(pair, 20)
        basis = fourier_fields(torus, 10)[1:]
        kernels = []
        for n in range(2, 21):
            rep = obstruction_map(spectral, basis, n_modes=n)
            kernels.append(rep.kernel_dim)
        assert all(a >= b for a, b in zip(kernels, kernels[1:]))
        final = obstruction_map(spectral, basis, n_modes=20)
        assert final.kernel_dim == 0
        sig = final.singular_values
        assert sig[-1] / sig[0] > 1e-6
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_07_no_isospectral_segments(request):
    note = verdict(7, "random positive endpoint pairs never bound a flat segment")
    try:
        started = time.monotonic()
        torus = request.getfixturevalue("torus16a")
        taus = (0.0, 0.25, 0.5, 0.75, 1.0)
        rng = np.random.default_rng(20240817)
        fields = fourier_fields(torus, 10)[1:]

        def random_factor():
            coeffs = rng.standard_normal(len(fields))
            bump = np.zeros(torus.node_count)
            for c, f in zip(coeffs, fields):
                bump += c * f.values
            bump /= np.abs(bump).max()
            return ScalarField(torus, np.exp(0.3 * bump))

        for _ in range(20):
            c1 = random_factor()
            c2 = random_factor()
            rep = convexity_probe(torus, c1, c2, 6, taus)
            flat_ends = rep.endpoints_isospectral_gap <= 1e-10
            flat_inside = rep.spectral_distances.max() <= 1e-10
            assert not (flat_ends and flat_inside)

        same = random_factor()
        twin = ScalarField(torus, same.values.copy())
        rep = convexity_probe(torus, same, twin, 6, taus)
        assert rep.spectral_distances.max() <= 1e-12
        assert time.monotonic() - started <= 300.0
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_08_vanishing_diagonal_identity(request):
    note = verdict(8, "zero-diagonal field satisfies the square-sum identity")
    try:
        torus = request.getfixturevalue("torus16a")
        spectral = request.getfixturevalue("spectral16_full")
        n_zero = 13
        basis = fourier_fields(torus, 40)[1:]
        fmat = np.column_stack([f.values for f in basis])

        rows = []
        psi = spectral.eigenvectors
        mass = spectral.pair.mass
        for members in spectral.degeneracy_groups:
            if members[-1] >= n_zero:
                break
            for a in members:
                for b in members:
                    if a <= b:
                        rows.append(
                            fmat.T @ (mass * psi[:, a] * psi[:, b])
                        )
        constraints = np.vstack(rows)
        _, sing, vt = np.linalg.svd(constraints)
        null_dim = fmat.shape[1] - sing.size + int(np.sum(sing <= 1e-10))
        assert null_dim >= 1
        values = fmat @ vt[-1]
        values /= np.abs(values).max()
        f = ScalarField(torus, values)

        elements = field_matrix_elements(spectral, values)
        for members in spectral.degeneracy_groups:
            if members[-1] >= n_zero:
                break
            block = elements[np.ix_(members, members)]
            assert np.abs(block).max() <= 1e-10

        # Parseval with the diagonal removed: the square of the field against
        # each mode equals the full off-diagonal square sum
        for n in range(n_zero):
            lhs = float(psi[:, n] @ (mass * values**2 * psi[:, n]))
            rhs = float((elements[:, n] ** 2).sum() - elements[n, n] ** 2)
            assert abs(lhs - rhs) <= 1e-9

        probe = metric_side_probe(torus, f, n_zero, (1e-3, -1e-3))
        assert probe.collapsed_vs_generic_max <= 1e-9
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_09_mesh_backend_parity(request):
    note = verdict(9, "icosphere mesh replays the correction checks at 10x tol")
    try:
        started = time.monotonic()
        path = request.getfixturevalue("icosphere2_path")
        surface = load_mesh(path)
        pair = assemble_base(surface)
        assert pair.node_count <= 1000
        spectral = eigen.solve(pair, pair.node_count)
        fields = [
            field_from_expression(surface, "0.3*x*y"),
            field_from_expression(surface, "0.25*(x*x - y*y)"),
            field_from_expression(surface, "0.2*x*y + 0.15*y*z + 0.1*(x*x - z*z)"),
        ]
        for f in fields:
            pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
            ops = conformal_operators(pair, pert)
            report = compute_corrections(spectral, ops)
            fd1, _ = finite_difference_corrections(pair, pert, report, 1e-4, 16)
            assert scaled_gap(fd1[1:16], report.lambda1[1:16]).max() <= 1e-4
            _, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, 16)
            assert scaled_gap(fd2[1:16], report.lambda2[1:16]).max() <= 1e-2

        pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=fields[2])
        ops = conformal_operators(pair, pert)
        base = compute_corrections(spectral, ops)
        off_diag = ~np.eye(base.psi1_coeffs.shape[0], dtype=bool)
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            hacked = PerturbationOperators(
                pair=pair,
                h1_multiplier=ops.h1_multiplier,
                h2_multiplier=ops.h2_multiplier,
                g1=rng.standard_normal(pair.node_count),
                g2=rng.standard_normal(pair.node_count),
            )
            rep = compute_corrections(spectral, hacked)
            assert np.array_equal(rep.lambda1, base.lambda1)
            assert np.array_equal(rep.lambda2, base.lambda2)
            assert np.array_equal(
                rep.psi1_coeffs[off_diag], base.psi1_coeffs[off_diag]
            )
            adapted = adapt_degenerate_basis(spectral, hacked).eigenvectors
            for k in range(spectral.n_modes):
                psi_k = adapted[:, k]
                expected = -0.5 * float(psi_k @ (pair.mass * (hacked.g1 * psi_k)))
                assert abs(rep.psi1_coeffs[k, k] - expected) <= 1e-11 * (
                    1.0 + abs(expected)
                )
        assert time.monotonic() - started <= 180.0
    except BaseException:
        note(False)
        raise
    note(True)


def test_criterion_10_weyl_area():
    note = verdict(10, "counting fit recovers the unit torus area within 15%")
    try:
        pair = assemble_base(make_torus(48, 48, 1.0, 1.0))
        estimate = weyl_volume_estimate(eigen.solve(pair, 100))
        assert abs(estimate - 1.0) <= 0.15
    except BaseException:
        note(False)
        raise
    note(True)
