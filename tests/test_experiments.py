import csv
import json
import warnings

import numpy as np
import pytest

from isospec import eigen
from isospec.assembly import OperatorPair, assemble_base
from isospec.errors import (
    InsufficientModesError,
    ModeCountError,
    PositivityError,
    RankDeficientBasisError,
    SurfaceMismatchError,
)
from isospec.experiments import (
    convexity_probe,
    default_field_basis,
    field_matrix_elements,
    finite_difference_corrections,
    metric_side_probe,
    obstruction_map,
    weyl_volume_estimate,
)
from isospec.perturb import compute_corrections
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    constant_field,
    field_from_expression,
    fourier_fields,
    icosphere_arrays,
    load_mesh,
    make_torus,
    mesh_from_arrays,
)
from reference import NotApplicableError, induction_verifier


@pytest.fixture(scope="module")
def torus12():
    return make_torus(12, 12, 1.0, 1.0)


@pytest.fixture(scope="module")
def spectral12(torus12):
    pair = assemble_base(torus12)
    return eigen.solve(pair, pair.node_count)


# ------------------------------------------------------------ matrix elements


def test_field_matrix_elements_symmetric(spectral12, rng):
    f = rng.standard_normal(spectral12.pair.node_count)
    a = field_matrix_elements(spectral12, f)
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()


def test_field_matrix_elements_truncation(spectral12, rng):
    f = rng.standard_normal(spectral12.pair.node_count)
    full = field_matrix_elements(spectral12, f)
    part = field_matrix_elements(spectral12, f, n_modes=7)
    np.testing.assert_array_equal(part, full[:7, :7])


# ---------------------------------------------------------------- obstruction


def test_obstruction_constant_basis(torus12, spectral12):
    basis = [constant_field(torus12, 1.0)]
    report = obstruction_map(spectral12, basis, n_modes=5)
    assert report.field_dim == 1
    assert report.n_modes == 5
    # the constant maps to the identity window, whose Frobenius norm is sqrt(N)
    assert report.singular_values[0] == pytest.approx(np.sqrt(5.0), rel=1e-12)
    assert report.kernel_dim == 0


def test_obstruction_single_zero_mean_field(torus12, spectral12):
    basis = [field_from_expression(torus12, "cos(2*pi*x)")]
    report = obstruction_map(spectral12, basis, n_modes=1)
    assert report.singular_values.shape == (1,)
    assert report.singular_values[0] <= 1e-12
    assert report.kernel_dim == 1


def test_obstruction_threshold_overflow_is_silent(torus12, spectral12):
    # kernel_tol * sigma_max overflows to inf: every singular value is in
    # the kernel, as for any kernel_tol >= 1, and no warning is raised
    basis = [
        field_from_expression(torus12, f"4*{mode}")
        for mode in ("cos(2*pi*x)", "sin(2*pi*y)", "cos(2*pi*(x+y))")
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = obstruction_map(spectral12, basis, n_modes=5, kernel_tol=1e308)
    assert report.kernel_dim == 3


def test_obstruction_fourier_basis_full_rank():
    surface = make_torus(16, 16, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 20)
    basis = fourier_fields(surface, 10)[1:]
    report = obstruction_map(spectral, basis, n_modes=20)
    assert report.field_dim == 9
    assert report.kernel_dim == 0
    sig = report.singular_values
    assert sig[-1] / sig[0] > 1e-6
    assert np.all(np.diff(sig) <= 0.0)


def test_obstruction_kernel_shrinks_with_window():
    surface = make_torus(16, 16, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 20)
    basis = fourier_fields(surface, 10)[1:]
    kernels, sig_mins = [], []
    for n in (1, 4, 9, 20):
        report = obstruction_map(spectral, basis, n_modes=n)
        kernels.append(report.kernel_dim)
        sig_mins.append(report.singular_values[-1])
    # every zero-mean field is invisible to the ground mode alone
    assert kernels[0] == 9
    assert kernels[-1] == 0
    assert all(a >= b for a, b in zip(kernels, kernels[1:]))
    # a larger window adds rows to the map, so sigma_min cannot drop
    assert all(b >= a - 1e-12 for a, b in zip(sig_mins, sig_mins[1:]))


def test_obstruction_against_rebuilt_map(torus12, spectral12, rng):
    basis = fourier_fields(torus12, 7)[1:]
    n = 9
    report = obstruction_map(spectral12, basis, n_modes=n)
    tmat = np.column_stack(
        [field_matrix_elements(spectral12, f.values, n).ravel() for f in basis]
    )
    expected = np.linalg.svd(tmat, compute_uv=False)
    np.testing.assert_allclose(report.singular_values, expected, rtol=1e-10)
    sig_min = report.singular_values[-1]
    for _ in range(300):
        w = rng.standard_normal(len(basis))
        w /= np.linalg.norm(w)
        assert np.linalg.norm(tmat @ w) >= sig_min * (1.0 - 1e-10)


def test_obstruction_duplicate_field_rejected(torus12, spectral12):
    f = field_from_expression(torus12, "cos(2*pi*x)")
    with pytest.raises(RankDeficientBasisError):
        obstruction_map(spectral12, [f, f], n_modes=5)


def test_obstruction_mode_window_validated(torus12, spectral12):
    basis = [constant_field(torus12, 1.0)]
    with pytest.raises(ModeCountError):
        obstruction_map(spectral12, basis, n_modes=0)
    with pytest.raises(ModeCountError):
        obstruction_map(spectral12, basis, n_modes=spectral12.n_modes + 1)


def test_obstruction_foreign_field_rejected(torus12, spectral12):
    other = make_torus(12, 12, 1.0, 1.0)
    with pytest.raises(SurfaceMismatchError):
        obstruction_map(spectral12, [constant_field(other, 1.0)], n_modes=5)


def test_obstruction_json_round_trip(torus12, spectral12):
    report = obstruction_map(spectral12, [constant_field(torus12, 1.0)], 5)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["schema_version"] == 1
    assert data["kernel_dim"] == 0
    assert data["singular_values"][0] == pytest.approx(np.sqrt(5.0))


# ------------------------------------------------------------------ induction


def zero_perturbation_ops(torus12):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC, f1=constant_field(torus12, 0.0)
    )
    return pert


def test_induction_zero_field_passes(torus12, spectral12):
    from isospec.assembly import conformal_operators

    ops = conformal_operators(spectral12.pair, zero_perturbation_ops(torus12))
    report = induction_verifier(spectral12, ops, tol=1e-10)
    assert report.passed
    assert not report.inconsistent
    assert report.lambda1_scaled_max == 0.0
    assert report.lambda2_scaled_max == 0.0
    assert report.rows.size > 0
    assert np.all(report.row_maxima == 0.0)
    assert np.all(report.certified_bounds > 0.0)
    assert np.all(report.row_maxima <= report.certified_bounds)


def test_induction_rejects_first_order(torus12, spectral12):
    from isospec.assembly import conformal_operators

    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC, f1=constant_field(torus12, 1.0)
    )
    ops = conformal_operators(spectral12.pair, pert)
    with pytest.raises(NotApplicableError, match="first-order"):
        induction_verifier(spectral12, ops, tol=1e-6)


def test_induction_rejects_second_order(torus12, spectral12):
    from isospec.assembly import conformal_operators

    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=field_from_expression(torus12, "cos(2*pi*x)"),
    )
    ops = conformal_operators(spectral12.pair, pert)
    with pytest.raises(NotApplicableError, match="second-order"):
        induction_verifier(spectral12, ops, tol=1e-6)


def test_induction_flags_injected_inconsistency(torus12, spectral12):
    from isospec.assembly import conformal_operators

    ops = conformal_operators(spectral12.pair, zero_perturbation_ops(torus12))
    n = spectral12.n_modes
    tol = 1e-6
    scale2 = (1.0 + np.abs(spectral12.eigenvalues)) ** 2
    # passes the vanishing premise yet contradicts the zero matrix elements
    report = induction_verifier(
        spectral12,
        ops,
        tol=tol,
        lambda1=np.zeros(n),
        lambda2=0.5 * tol * scale2,
        elements=np.zeros((n, n)),
    )
    assert report.inconsistent
    assert not report.passed


def test_induction_certifies_planted_element(torus12, spectral12):
    from isospec.assembly import conformal_operators

    ops = conformal_operators(spectral12.pair, zero_perturbation_ops(torus12))
    n = spectral12.n_modes
    elements = np.zeros((n, n))
    planted = 0.02
    elements[5, 1] = elements[1, 5] = planted
    report = induction_verifier(spectral12, ops, tol=1e-4, elements=elements)
    assert not report.inconsistent
    assert not report.passed
    row = int(np.flatnonzero(report.rows == 1)[0])
    assert report.row_maxima[row] == pytest.approx(planted)
    assert np.all(report.row_maxima <= report.certified_bounds)


def test_induction_json_round_trip(torus12, spectral12):
    from isospec.assembly import conformal_operators

    ops = conformal_operators(spectral12.pair, zero_perturbation_ops(torus12))
    report = induction_verifier(spectral12, ops, tol=1e-10)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["schema_version"] == 1
    assert data["passed"] is True
    assert len(data["rows"]) == len(data["certified_bounds"])


# ------------------------------------------------------------------ convexity


def test_convexity_equal_endpoints_flat(torus12):
    c1 = field_from_expression(torus12, "1 + 0.2*cos(2*pi*y)")
    c2 = field_from_expression(torus12, "1 + 0.2*cos(2*pi*y)")
    report = convexity_probe(torus12, c1, c2, 6, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert report.endpoints_isospectral_gap <= 1e-12
    assert np.max(report.spectral_distances) <= 1e-12


def test_convexity_constant_endpoints_scaling(torus12):
    c1 = constant_field(torus12, 1.0)
    c2 = constant_field(torus12, 2.0)
    taus = (0.0, 0.25, 0.5, 0.75, 1.0)
    report = convexity_probe(torus12, c1, c2, 6, taus)
    base = eigen.solve(assemble_base(torus12), 6).eigenvalues
    scale = 1.0 + 2.0 * base
    for k, tau in enumerate(taus):
        np.testing.assert_allclose(
            report.eigenvalues[k], (2.0 - tau) * base, rtol=1e-9, atol=1e-12
        )
        expected = np.max(tau * base / scale)
        assert report.spectral_distances[k] == pytest.approx(expected, abs=1e-10)
    assert report.endpoints_isospectral_gap == pytest.approx(
        np.max(base / scale), rel=1e-9
    )
    assert np.all(np.diff(report.spectral_distances) > 0.0)


def test_convexity_deviation_order_in_tau(torus12):
    # cos(4 pi x) has nonzero diagonal elements against the first harmonics,
    # so the deviation grows linearly along the segment
    c1 = field_from_expression(torus12, "1 + 0.15*cos(4*pi*x)")
    c2 = constant_field(torus12, 1.0)
    report = convexity_probe(torus12, c1, c2, 6, (0.25, 0.5))
    ratio = report.spectral_distances[1] / report.spectral_distances[0]
    assert 1.8 <= ratio <= 2.2

    # cos(2 pi x) kills every first-order correction, leaving a quadratic
    c1 = field_from_expression(torus12, "1 + 0.15*cos(2*pi*x)")
    report = convexity_probe(torus12, c1, c2, 6, (0.25, 0.5))
    ratio = report.spectral_distances[1] / report.spectral_distances[0]
    assert 3.6 <= ratio <= 4.4


def test_convexity_solves_each_tau_once(torus12, monkeypatch):
    c1 = field_from_expression(torus12, "1 + 0.15*cos(4*pi*x)")
    c2 = field_from_expression(torus12, "1 + 0.1*sin(2*pi*y)")
    taus = (0.0, 0.25, 0.5, 0.75, 1.0)
    pair = assemble_base(torus12)
    spectra = [
        eigen.solve(
            OperatorPair(
                surface=torus12,
                stiffness=pair.stiffness,
                mass=pair.mass / (tau * c1.values + (1.0 - tau) * c2.values),
            ),
            6,
        ).eigenvalues
        for tau in taus
    ]
    calls = []
    solve = eigen.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen, "solve", counted)
    report = convexity_probe(torus12, c1, c2, 6, taus)
    assert len(calls) == len(taus)
    scale = 1.0 + np.abs(spectra[0])
    deviations = np.abs(np.vstack(spectra) - spectra[0]) / scale
    assert np.array_equal(report.eigenvalues, np.vstack(spectra))
    assert np.array_equal(report.deviations, deviations)
    assert np.array_equal(report.spectral_distances, deviations.max(axis=1))
    assert report.endpoints_isospectral_gap == float(
        np.max(np.abs(spectra[-1] - spectra[0]) / scale)
    )


def test_convexity_rejects_bad_grid(torus12):
    c = constant_field(torus12, 1.0)
    with pytest.raises(ValueError):
        convexity_probe(torus12, c, c, 6, ())
    with pytest.raises(ValueError):
        convexity_probe(torus12, c, c, 6, (0.0, 1.5))
    with pytest.raises(ValueError):
        convexity_probe(torus12, c, c, 6, (-0.1, 0.5))


def test_convexity_rejects_nan_tau(torus12):
    c = constant_field(torus12, 1.0)
    with pytest.raises(ValueError, match="tau_grid"):
        convexity_probe(torus12, c, c, 6, (float("nan"),))


def test_convexity_rejects_nonpositive_endpoint(torus12):
    values = np.ones(torus12.node_count)
    values[7] = -0.5
    bad = ScalarField(torus12, values)
    good = constant_field(torus12, 1.0)
    with pytest.raises(PositivityError) as info:
        convexity_probe(torus12, bad, good, 6, (0.0, 1.0))
    assert info.value.node_index == 7


def test_convexity_rejects_foreign_factor(torus12):
    other = make_torus(12, 12, 1.0, 1.0)
    with pytest.raises(SurfaceMismatchError):
        convexity_probe(
            torus12,
            constant_field(other, 1.0),
            constant_field(torus12, 1.0),
            6,
            (0.0, 1.0),
        )


def test_convexity_exports(tmp_path, torus12):
    c1 = constant_field(torus12, 1.0)
    c2 = constant_field(torus12, 2.0)
    report = convexity_probe(torus12, c1, c2, 4, (0.0, 0.5, 1.0))
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["schema_version"] == 1
    assert len(data["spectral_distances"]) == 3
    path = tmp_path / "convexity.csv"
    report.export_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "mode", "eigenvalue", "deviation"]
    assert len(rows) == 1 + 3 * 4
    assert float(rows[1][2]) == pytest.approx(report.eigenvalues[0, 0])


# --------------------------------------------------------------- metric probe


def test_metric_probe_zero_field(torus12):
    f = constant_field(torus12, 0.0)
    report = metric_side_probe(torus12, f, 5, (1e-3, -1e-3))
    assert np.all(report.lambda1 == 0.0)
    assert np.all(report.lambda2 == 0.0)
    assert np.abs(report.collapsed_lambda2).max() == 0.0
    assert report.collapsed_vs_generic_max == 0.0
    assert np.max(report.prediction_deviations) <= 1e-13
    assert report.fd_step == pytest.approx(1e-3)
    assert np.abs(report.fd_lambda1).max() <= 1e-10
    assert np.abs(report.fd_lambda2).max() <= 1e-7


def test_metric_probe_constant_field(torus12):
    c = 0.5
    report = metric_side_probe(torus12, constant_field(torus12, c), 5, (1e-2, -1e-2, 5e-3))
    lam = report.lambda0
    np.testing.assert_allclose(report.lambda1, -c * lam, atol=1e-10)
    np.testing.assert_allclose(report.lambda2, c * c * lam, rtol=1e-9, atol=1e-12)
    # constant fields have no off-diagonal elements, so the in-group term
    # lambda1^2 / lambda0 = c^2 lambda0 carries the whole collapsed sum
    np.testing.assert_allclose(
        report.collapsed_lambda2, c * c * lam, rtol=1e-9, atol=1e-12
    )
    assert report.collapsed_lambda2[0] == pytest.approx(0.0, abs=1e-14)
    assert report.collapsed_vs_generic_max <= 1e-12
    # lambda(t) = lambda / (1 + c t): the quadratic prediction is cubic-exact
    assert np.max(report.prediction_deviations) <= 1e-6
    assert report.fd_step == pytest.approx(1e-2)
    assert np.abs(report.fd_lambda1 - report.lambda1).max() <= 1e-4 * (1.0 + lam.max())
    assert np.abs(report.fd_lambda2 - report.lambda2).max() <= 3e-5 * (1.0 + lam.max())


def test_metric_probe_cosine_field(torus12):
    f = field_from_expression(torus12, "cos(2*pi*x)")
    report = metric_side_probe(torus12, f, 5, (1e-3, -1e-3))
    # every in-group block of this field vanishes, so the collapsed formula
    # must agree with the generic second-order machinery
    assert report.collapsed_vs_generic_max <= 1e-9
    assert np.max(report.prediction_deviations) <= 1e-7
    assert np.abs(report.fd_lambda1 - report.lambda1).max() <= 1e-5 * (
        1.0 + np.abs(report.lambda0).max()
    )


@pytest.mark.parametrize(
    "kind, expr",
    [("torus", "0.3*cos(2*pi*x)*sin(2*pi*y)"), ("ico", "0.3*x*y + 0.2*z")],
)
def test_metric_probe_collapsed_matches_generic(kind, expr):
    # these fields have nonzero first-order corrections, so the collapsed
    # sum needs its in-group term lambda1^2 / lambda0 to match
    if kind == "torus":
        surface = make_torus(24, 24, 1.0, 1.0)
    else:
        surface = mesh_from_arrays(*icosphere_arrays(3))
    f = field_from_expression(surface, expr)
    report = metric_side_probe(surface, f, 10, (1e-3, -1e-3))
    assert np.abs(report.lambda1).max() >= 1e-3
    assert report.collapsed_vs_generic_max <= 1e-12


def test_metric_probe_smaller_steps_track_better(torus12):
    f = field_from_expression(torus12, "cos(2*pi*x)")
    report = metric_side_probe(torus12, f, 5, (1e-2, 2e-3))
    assert report.prediction_deviations[1] < report.prediction_deviations[0]
    assert report.fd_step is None
    assert report.fd_lambda1 is None


def test_metric_probe_foreign_field(torus12):
    other = make_torus(12, 12, 1.0, 1.0)
    with pytest.raises(SurfaceMismatchError):
        metric_side_probe(torus12, constant_field(other, 1.0), 5, (1e-3,))


def test_metric_probe_exports(tmp_path, torus12):
    f = constant_field(torus12, 0.25)
    report = metric_side_probe(torus12, f, 5, (1e-3, -1e-3))
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["schema_version"] == 1
    assert len(data["lambda1"]) == 5
    assert data["fd_step"] == pytest.approx(1e-3)
    assert len(data["fd_lambda1"]) == 5
    path = tmp_path / "probe.csv"
    report.export_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "max_prediction_deviation"]
    assert len(rows) == 3

    bare = metric_side_probe(torus12, f, 5, (1e-3, 2e-3))
    assert "fd_lambda1" not in bare.to_json_dict()


# ------------------------------------------------------- finite differences


def test_fd_corrections_match_inverse_side(torus12):
    pair = assemble_base(torus12)
    spectral = eigen.solve(pair, pair.node_count)
    f = field_from_expression(torus12, "cos(2*pi*x)*cos(2*pi*y)")
    pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
    from isospec.assembly import conformal_operators

    report = compute_corrections(spectral, conformal_operators(pair, pert))
    fd1, fd2 = finite_difference_corrections(pair, pert, report, 1e-4, n_modes=9)
    lam = spectral.eigenvalues[:9]
    assert np.abs(fd1 - report.lambda1[:9]).max() <= 1e-5 * (1.0 + np.abs(lam).max())
    rough = np.abs(fd2 - report.lambda2[:9]).max()
    assert rough <= 1e-2 * (1.0 + np.abs(lam).max())


@pytest.mark.parametrize("side", list(PerturbationSide))
def test_fd_corrections_zero_field(torus12, side):
    # f = 0 leaves the mass bit for bit at +-h, and eigen.solve is
    # deterministic, so a centre solved like the +-h points cancels exactly
    pair = assemble_base(torus12)
    spectral = eigen.solve(pair, pair.node_count)
    pert = ConformalPerturbation(side=side, f1=constant_field(torus12, 0.0))
    from isospec.assembly import conformal_operators

    report = compute_corrections(spectral, conformal_operators(pair, pert))
    fd1, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, n_modes=5)
    assert np.all(fd1 == 0.0)
    assert np.all(fd2 == 0.0)


@pytest.fixture(scope="module")
def split_window12(torus12):
    # a 9-mode window whose two 4-fold levels split at first order
    pair = assemble_base(torus12)
    f = field_from_expression(torus12, "cos(4*pi*x) + 0.2*sin(2*pi*y)")
    pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
    from isospec.assembly import conformal_operators

    spectral = eigen.solve_window(pair, 9)
    report = compute_corrections(spectral, conformal_operators(pair, pert))
    assert report.n_modes == 9
    return pair, pert, report


@pytest.mark.parametrize("h", [-1e-4, 0.0, -0.0, 1e-200, np.nan, np.inf, -np.inf])
def test_fd_corrections_refuse_bad_step(split_window12, h):
    # a negative step would pair the +-h spectra with the branch order of
    # the wrong sign, and h = 0 or an underflowing h*h divides by zero
    pair, pert, report = split_window12
    with pytest.raises(ValueError, match="finite and positive"):
        finite_difference_corrections(pair, pert, report, h)


@pytest.mark.parametrize("n_modes", [0, -1, 10, 12])
def test_fd_corrections_refuse_mode_count(split_window12, n_modes):
    pair, pert, report = split_window12
    with pytest.raises(ModeCountError):
        finite_difference_corrections(pair, pert, report, 1e-4, n_modes=n_modes)


def test_metric_probe_solves_each_t_once(torus12, solver_counts):
    # the window, then t = 0 (also the finite-difference centre) and +-1e-3
    f = field_from_expression(torus12, "0.2*cos(2*pi*x)")
    report = metric_side_probe(torus12, f, 5, (0.0, 1e-3, -1e-3, 1e-3))
    assert len(solver_counts["modes"]) == 4
    unique = metric_side_probe(torus12, f, 5, (0.0, 1e-3, -1e-3))
    deviations = report.prediction_deviations
    assert np.array_equal(deviations[:3], unique.prediction_deviations)
    assert deviations[3] == deviations[1]
    assert report.fd_step == unique.fd_step == 1e-3
    assert np.array_equal(report.fd_lambda1, unique.fd_lambda1)
    assert np.array_equal(report.fd_lambda2, unique.fd_lambda2)


def test_metric_probe_fd_is_the_public_fd(torus12):
    f = field_from_expression(torus12, "0.3*cos(2*pi*x)*sin(2*pi*y)")
    probe = metric_side_probe(torus12, f, 5, (1e-3, -1e-3, 5e-3))
    pair = assemble_base(torus12)
    pert = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    from isospec.assembly import conformal_operators

    spectral = eigen.solve_window(pair, 5)
    report = compute_corrections(spectral, conformal_operators(pair, pert))
    fd1, fd2 = finite_difference_corrections(pair, pert, report, 1e-3)
    assert np.abs(probe.lambda1).max() >= 1e-3
    assert np.array_equal(probe.fd_lambda1, fd1)
    assert np.array_equal(probe.fd_lambda2, fd2)


# ----------------------------------------------------------------------- weyl


def test_weyl_insufficient_modes(torus12):
    pair = assemble_base(torus12)
    spectral = eigen.solve(pair, 10)
    with pytest.raises(InsufficientModesError):
        weyl_volume_estimate(spectral)


def test_weyl_synthetic_trace_identity(torus16, pair16):
    # the assembled unit-torus stiffness is exactly the 4-regular grid graph
    # Laplacian (cell area times 1/h^2 is 1), so a constant mass vector gives
    # the synthetic pair directly
    kd = pair16.stiffness.diagonal()
    assert np.all(kd == 4.0)

    estimates = {}
    for a in (1.0, 3.0 / 256.0):
        synth = OperatorPair(
            surface=torus16, stiffness=pair16.stiffness, mass=np.full(256, a)
        )
        trace = 256.0 * a
        errs = []
        for n in (256, 100, 60):
            est = weyl_volume_estimate(eigen.solve(synth, n))
            errs.append(abs(est - trace) / trace)
            assert 0.5 * trace <= est <= 2.0 * trace
            estimates[(a, n)] = est
        # the fit drifts up into the top of the discrete band; restricting to
        # lower counting windows pulls it back toward the trace
        assert errs[2] < errs[1] < errs[0]
    # the estimate is exactly proportional to the trace across mass scalings
    for n in (256, 100, 60):
        assert estimates[(3.0 / 256.0, n)] == pytest.approx(
            (3.0 / 256.0) * estimates[(1.0, n)], rel=1e-8
        )


def test_weyl_unit_torus_low_window():
    pair = assemble_base(make_torus(24, 24, 1.0, 1.0))
    est = weyl_volume_estimate(eigen.solve(pair, 60))
    assert abs(est - 1.0) <= 0.15


# ----------------------------------------------------------------- field basis


def test_default_field_basis_torus(torus12):
    basis = default_field_basis(torus12, 7, eigen.solve(assemble_base(torus12), 7))
    assert len(basis) == 7
    np.testing.assert_allclose(basis[0].values, 1.0)
    for f in basis:
        assert f.surface is torus12


def test_default_field_basis_mesh(octahedron_path):
    surface = load_mesh(octahedron_path)
    basis = default_field_basis(surface, 4, eigen.solve(assemble_base(surface), 4))
    assert len(basis) == 4
    assert all(f.surface is surface for f in basis)
    assert np.std(basis[0].values) <= 1e-10


def test_default_field_basis_mesh_needs_modes(octahedron_path):
    surface = load_mesh(octahedron_path)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, 3)
    with pytest.raises(ModeCountError):
        default_field_basis(surface, 4, spectral=spectral)
