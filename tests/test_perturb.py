import numpy as np
import pytest
import scipy.sparse as sp

from isospec import eigen, perturb
from isospec.assembly import (
    OperatorPair,
    PerturbationOperators,
    assemble_base,
    conformal_operators,
    exact_perturbed_pair,
)
from isospec.errors import SmallGapError
from isospec.perturb import (
    CorrectionReport,
    adapt_degenerate_basis,
    branch_permutation,
    compute_corrections,
    first_order,
    matrix_elements,
    predicted_spectrum,
    second_order,
)
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    constant_field,
    field_from_expression,
    make_torus,
)
from reference import SymmetryError, generic_operators, qm_special_case


def conformal_setup(nx, expr, n_modes=None, side=PerturbationSide.INVERSE_METRIC, f2=None):
    surface = make_torus(nx, nx, 1.0, 1.0)
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, pair.node_count if n_modes is None else n_modes)
    f1 = field_from_expression(surface, expr)
    f2_field = field_from_expression(surface, f2) if f2 else None
    pert = ConformalPerturbation(side=side, f1=f1, f2=f2_field)
    return pair, spectral, pert, conformal_operators(pair, pert)


def synthetic_spectral(eigenvalues, groups):
    n = len(eigenvalues)
    pair = OperatorPair(
        surface=None,
        stiffness=sp.csr_matrix(np.diag(np.asarray(eigenvalues, dtype=float))),
        mass=np.ones(n),
    )
    return eigen.SpectralData(
        pair=pair,
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        eigenvectors=np.eye(n),
        degeneracy_groups=tuple(tuple(g) for g in groups),
        tol_deg=1e-12,
    )


# ---------------------------------------------------------------- adaptation


def test_adapt_identity_for_singletons():
    spectral = synthetic_spectral([0.0, 1.0, 2.5, 7.0], [(0,), (1,), (2,), (3,)])
    ops = generic_operators(spectral.pair, np.diag([1.0, 2.0, 3.0, 4.0]))
    adapted = adapt_degenerate_basis(spectral, ops)
    assert adapted.basis_rotations == {}
    assert np.array_equal(adapted.eigenvectors, spectral.eigenvectors)


def test_adapt_diagonalizes_fourfold_group():
    # cos(4 pi x) splits the first excited torus level at first order
    pair, spectral, _, ops = conformal_setup(12, "cos(4*pi*x)")
    adapted = adapt_degenerate_basis(spectral, ops)
    elements = matrix_elements(adapted, ops)
    group = spectral.degeneracy_groups[1]
    block = elements[np.ix_(group, group)]
    scale = 1.0 + np.abs(elements).max()
    assert np.abs(block - np.diag(np.diag(block))).max() <= 1e-10 * scale

    # direct 4x4 oracle: projected block eigenvalues = adapted diagonal
    psi = spectral.eigenvectors[:, group]
    raw = psi.T @ (pair.mass[:, None] * ops.apply_h1(psi))
    oracle = np.sort(np.linalg.eigvalsh(0.5 * (raw + raw.T)))
    assert np.allclose(np.sort(np.diag(block)), oracle, atol=1e-10)


def test_adapt_constant_field_identity_rotations():
    _, spectral, _, ops = conformal_setup(12, "2", n_modes=9)
    adapted = adapt_degenerate_basis(spectral, ops)
    for gid, members in enumerate(spectral.degeneracy_groups):
        if len(members) == 1:
            assert gid not in adapted.basis_rotations
        else:
            rot = adapted.basis_rotations[gid]
            assert np.allclose(rot, np.eye(len(members)), atol=1e-13)


def test_adapt_small_cross_group_gap_guard():
    # zero in-group block leaves a first-order tie, so stage 2 must divide
    # by the 2e-13 cross-group gap and refuse
    spectral = synthetic_spectral(
        [0.0, 1.0, 1.0 + 1e-13, 1.0 + 2e-13, 5.0], [(0,), (1, 2), (3,), (4,)]
    )
    h1 = np.zeros((5, 5))
    h1[1, 3] = h1[3, 1] = 1.0
    ops = generic_operators(spectral.pair, h1)
    with pytest.raises(SmallGapError):
        adapt_degenerate_basis(spectral, ops)


# ---------------------------------------------------------------- first order


def test_first_order_constant_field():
    c = 0.7
    _, spectral, _, ops = conformal_setup(12, repr(c))
    lam1 = first_order(spectral, ops)
    assert np.allclose(lam1, c * spectral.eigenvalues, rtol=1e-12, atol=1e-12)
    assert abs(lam1[0]) <= 1e-14


def test_first_order_ground_mode_zero():
    _, spectral, _, ops = conformal_setup(12, "cos(2*pi*x)*cos(2*pi*y)")
    report = compute_corrections(spectral, ops)
    assert abs(report.lambda1[0]) <= 1e-12


def test_first_order_matches_finite_difference():
    pair, spectral, pert, ops = conformal_setup(16, "cos(2*pi*x)*cos(2*pi*y)")
    report = compute_corrections(spectral, ops)
    h = 1e-4
    from isospec.experiments import finite_difference_corrections

    fd1, _ = finite_difference_corrections(pair, pert, report, h, n_modes=13)
    scale = 1.0 + np.abs(report.lambda0[:13])
    assert np.abs(report.lambda1[:13] - fd1).max() <= 1e-5 * scale.max()


def test_conformal_first_order_specialization():
    _, spectral, _, ops = conformal_setup(12, "cos(2*pi*x)")
    adapted = adapt_degenerate_basis(spectral, ops)
    lam1 = first_order(adapted, ops)
    psi = adapted.eigenvectors
    weighted = (adapted.pair.mass * ops.h1_multiplier)[:, None] * psi
    diag = np.einsum("in,in->n", psi, weighted)
    assert np.allclose(lam1, adapted.eigenvalues * diag, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------- first order psi


def test_first_order_vector_zero_perturbation():
    spectral = synthetic_spectral([0.0, 1.0, 2.0], [(0,), (1,), (2,)])
    ops = generic_operators(spectral.pair, np.zeros((3, 3)))
    coeffs = compute_corrections(spectral, ops).psi1_coeffs
    assert np.array_equal(coeffs, np.zeros((3, 3)))


def test_first_order_vector_normalization_only():
    _, spectral, _, _ = conformal_setup(12, "1", n_modes=6)
    f = field_from_expression(spectral.pair.surface, "cos(2*pi*x)")
    zero_h1 = np.zeros((spectral.pair.node_count,) * 2)
    ops = generic_operators(spectral.pair, zero_h1, g1=-f.values)
    report = compute_corrections(spectral, ops)
    for n in range(6):
        coeffs = report.psi1_coeffs[:, n]
        psi_n = spectral.eigenvectors[:, n]
        expected = 0.5 * psi_n @ (spectral.pair.mass * f.values * psi_n)
        assert coeffs[n] == pytest.approx(expected, abs=1e-14)
        off = np.delete(coeffs, n)
        assert np.abs(off).max() <= 1e-14


def test_first_order_residual_full_basis():
    pair, spectral, _, ops = conformal_setup(12, "cos(2*pi*x)")
    report = compute_corrections(spectral, ops)
    adapted = adapt_degenerate_basis(spectral, ops)
    for n in range(9):
        psi1 = adapted.eigenvectors @ report.psi1_coeffs[:, n]
        psi0 = adapted.eigenvectors[:, n]
        res = (
            pair.apply_laplacian(psi1)
            - adapted.eigenvalues[n] * psi1
            + ops.apply_h1(psi0)
            - report.lambda1[n] * psi0
        )
        norm = np.sqrt(res @ (pair.mass * res))
        assert norm <= 1e-8


def test_first_order_vector_small_gap_guard():
    spectral = synthetic_spectral([0.0, 1.0, 1.0 + 5e-13], [(0,), (1,), (2,)])
    h1 = np.zeros((3, 3))
    h1[1, 2] = h1[2, 1] = 1.0
    ops = generic_operators(spectral.pair, h1)
    with pytest.raises(SmallGapError):
        compute_corrections(spectral, ops)


# --------------------------------------------------------------- second order


def test_second_order_pure_h2():
    _, spectral, _, ops = conformal_setup(12, "0", f2="cos(2*pi*y)")
    lam2 = second_order(spectral, ops)
    f2 = field_from_expression(spectral.pair.surface, "cos(2*pi*y)")
    psi = spectral.eigenvectors
    weighted = (spectral.pair.mass * f2.values)[:, None] * psi
    diag = np.einsum("in,in->n", psi, weighted)
    assert np.allclose(lam2, spectral.eigenvalues * diag, rtol=1e-12, atol=1e-12)


def test_second_order_matches_finite_difference():
    pair, spectral, pert, ops = conformal_setup(16, "cos(2*pi*x)*cos(2*pi*y)")
    report = compute_corrections(spectral, ops)
    from isospec.experiments import finite_difference_corrections

    _, fd2 = finite_difference_corrections(pair, pert, report, 1e-3, n_modes=13)
    scale = 1.0 + np.abs(report.lambda0[:13])
    assert np.abs(report.lambda2[:13] - fd2).max() <= 1e-3 * scale.max()


def test_corrections_form_elements_once(monkeypatch):
    _, spectral, _, ops = conformal_setup(12, "cos(2*pi*x) + 0.3*cos(4*pi*y)")
    calls = []
    original = perturb.matrix_elements

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(perturb, "matrix_elements", counted)
    compute_corrections(spectral, ops)
    assert len(calls) == 1


def test_corrections_lambda2_is_second_order():
    # cos(2 pi x) leaves first-order ties, so stage 2 of the adaptation runs
    _, spectral, _, ops = conformal_setup(12, "cos(2*pi*x) + 0.3*cos(4*pi*y)")
    report = compute_corrections(spectral, ops)
    adapted = adapt_degenerate_basis(spectral, ops)
    expected = second_order(adapted, ops)
    assert np.array_equal(report.lambda2, expected)


def test_truncation_tail_bounds_missing_sum():
    pair, full_spectral, _, ops = conformal_setup(10, "cos(2*pi*x)")
    full = compute_corrections(full_spectral, ops)
    truncated_spectral = eigen.solve(pair, 30)
    trunc_ops = conformal_operators(
        pair,
        ConformalPerturbation(
            side=PerturbationSide.INVERSE_METRIC,
            f1=field_from_expression(pair.surface, "cos(2*pi*x)"),
        ),
    )
    truncated = compute_corrections(truncated_spectral, trunc_ops)
    assert truncated.truncation_modes == 30
    n = 13
    gap = np.abs(full.lambda2[:n] - truncated.lambda2[:n])
    slack = 1e-9 * (1.0 + np.abs(full.lambda0[:n])) ** 2
    assert np.all(gap <= truncated.tail_estimates[:n] + slack)
    # untruncated run reports negligible tails
    assert np.all(
        full.tail_estimates <= 1e-8 * (1.0 + np.abs(full.lambda0)) ** 2
    )


# ------------------------------------------------------------ special case QM


def test_qm_special_case_laplacian():
    pair, spectral, _, _ = conformal_setup(12, "0", n_modes=9)
    h1 = pair.apply_laplacian(np.eye(pair.node_count))
    lam1, lam2 = qm_special_case(spectral, h1)
    assert np.allclose(lam1, spectral.eigenvalues, rtol=1e-10, atol=1e-10)
    assert np.abs(lam2).max() <= 1e-8 * (1.0 + spectral.eigenvalues.max())


def test_qm_special_case_zero():
    _, spectral, _, _ = conformal_setup(12, "0", n_modes=6)
    lam1, lam2 = qm_special_case(spectral, np.zeros((144, 144)))
    assert np.array_equal(lam1, np.zeros(6))
    assert np.array_equal(lam2, np.zeros(6))


def test_qm_special_case_symmetry_checked():
    _, spectral, _, _ = conformal_setup(12, "0", n_modes=6)
    h1 = np.zeros((144, 144))
    h1[0, 1] = 1.0  # not M0-symmetric
    with pytest.raises(SymmetryError):
        qm_special_case(spectral, h1)


def test_qm_special_case_finite_difference(rng):
    n = 10
    a = rng.standard_normal((n, n))
    k = a @ a.T + n * np.eye(n)
    mass = rng.uniform(0.5, 2.0, size=n)
    pair = OperatorPair(surface=None, stiffness=sp.csr_matrix(k), mass=mass)
    spectral = eigen.solve(pair, n)
    s = rng.standard_normal((n, n))
    s = 0.2 * (s + s.T)
    h1 = s / mass[:, None]  # M0 H1 = s symmetric
    lam1, lam2 = qm_special_case(spectral, h1)

    h = 1e-5
    plus = eigen.solve(
        OperatorPair(surface=None, stiffness=sp.csr_matrix(k + h * s), mass=mass), n
    ).eigenvalues
    minus = eigen.solve(
        OperatorPair(surface=None, stiffness=sp.csr_matrix(k - h * s), mass=mass), n
    ).eigenvalues
    fd1 = (plus - minus) / (2 * h)
    fd2 = 0.5 * (plus - 2 * spectral.eigenvalues + minus) / h**2
    scale = 1.0 + np.abs(spectral.eigenvalues)
    assert np.abs(lam1 - fd1).max() <= 1e-6 * scale.max()
    assert np.abs(lam2 - fd2).max() <= 1e-2 * scale.max()


# ------------------------------------------------------------- G independence


def test_g_independence_and_normalization(rng):
    pair, spectral, _, ops = conformal_setup(12, "cos(2*pi*x)*cos(2*pi*y)")
    base = compute_corrections(spectral, ops)
    for _ in range(5):
        hacked = PerturbationOperators(
            pair=pair,
            h1_multiplier=ops.h1_multiplier,
            h2_multiplier=ops.h2_multiplier,
            g1=rng.standard_normal(pair.node_count),
            g2=rng.standard_normal(pair.node_count),
        )
        other = compute_corrections(spectral, hacked)
        assert np.array_equal(base.lambda1, other.lambda1)
        assert np.array_equal(base.lambda2, other.lambda2)
        off_base = base.psi1_coeffs - np.diag(np.diag(base.psi1_coeffs))
        off_other = other.psi1_coeffs - np.diag(np.diag(other.psi1_coeffs))
        assert np.array_equal(off_base, off_other)

        # normalization: <psi0, M psi1> + 1/2 <psi0, G1 psi0> = 0, in the
        # adapted basis the coefficients refer to
        adapted = adapt_degenerate_basis(spectral, hacked)
        psi = adapted.eigenvectors
        for n in range(0, 12, 3):
            psi1 = psi @ other.psi1_coeffs[:, n]
            lhs = psi[:, n] @ (pair.mass * psi1)
            g_term = 0.5 * psi[:, n] @ (pair.mass * hacked.g1 * psi[:, n])
            assert abs(lhs + g_term) <= 1e-12


def test_psi1_diagonal_matches_normalization(rng):
    pair, spectral, _, ops = conformal_setup(12, "cos(2*pi*y)")
    report = compute_corrections(spectral, ops)
    psi = spectral.eigenvectors
    for n in range(10):
        expected = -0.5 * psi[:, n] @ (pair.mass * ops.g1 * psi[:, n])
        assert report.psi1_coeffs[n, n] == pytest.approx(expected, abs=1e-13)


# ----------------------------------------------------------- scaling behavior


def test_corrections_scale_covariantly():
    # the exact family obeys c(t; s*f1, s^2*f2) = c(s*t; f1, f2), so the
    # quadratic models must agree as spectra even though branch order
    # inside degeneracy groups can flip for negative s
    _, spectral, _, base_ops = conformal_setup(
        12, "1 + 0.5*cos(2*pi*x)", f2="cos(2*pi*y)"
    )
    surface = spectral.pair.surface
    f1 = field_from_expression(surface, "1 + 0.5*cos(2*pi*x)")
    f2 = field_from_expression(surface, "cos(2*pi*y)")
    base = compute_corrections(spectral, base_ops)
    from isospec.surface import ScalarField

    for s in (2.0, -1.0):
        scaled_pert = ConformalPerturbation(
            side=PerturbationSide.INVERSE_METRIC,
            f1=ScalarField(surface, s * f1.values),
            f2=ScalarField(surface, s * s * f2.values),
        )
        ops_s = conformal_operators(spectral.pair, scaled_pert)
        scaled = compute_corrections(spectral, ops_s)
        groups = spectral.degeneracy_groups
        for members in groups:
            mg = list(members)
            want = np.sort(s * base.lambda1[mg])
            got = np.sort(scaled.lambda1[mg])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-11)
        for t in (1e-3, -1e-3):
            pred_scaled = predicted_spectrum(scaled, t)
            pred_base = predicted_spectrum(base, s * t)
            assert np.allclose(pred_scaled, pred_base, rtol=1e-12, atol=1e-10)


# ------------------------------------------------------------ branch tracking


def fabricated_report():
    return CorrectionReport(
        lambda0=np.array([1.0, 1.0, 1.0, 1.0]),
        lambda1=np.array([-1.0, -1.0, 0.0, 2.0]),
        lambda2=np.array([5.0, 7.0, 0.0, 0.0]),
        psi1_coeffs=np.zeros((4, 4)),
        basis_rotations={},
        degeneracy_groups=((0, 1, 2, 3),),
        tol_deg=1e-8,
        truncation_modes=4,
        tail_estimates=np.zeros(4),
        truncation_warnings=np.zeros(4, dtype=bool),
    )


def test_branch_permutation_signs():
    report = fabricated_report()
    assert list(branch_permutation(report, 1.0)) == [0, 1, 2, 3]
    assert list(branch_permutation(report, -1.0)) == [3, 2, 0, 1]


def test_predicted_spectrum_algebra():
    report = fabricated_report()
    t = 0.01
    pred = predicted_spectrum(report, t)
    manual = report.lambda0 + t * report.lambda1 + t * t * report.lambda2
    assert np.allclose(np.sort(pred), np.sort(manual), atol=1e-15)
    # negative direction re-pairs branches: strictly ascending output
    pred_neg = predicted_spectrum(report, -t)
    assert np.all(np.diff(pred_neg) >= 0.0)


def test_predicted_matches_exact_tracking():
    pair, spectral, pert, ops = conformal_setup(16, "cos(2*pi*x)", n_modes=13)
    report = compute_corrections(spectral, ops)
    for t in (1e-2, -1e-2):
        exact = eigen.solve(exact_perturbed_pair(pair, pert, t), 13).eigenvalues
        pred = predicted_spectrum(report, t)[:13]
        assert np.abs(pred - exact).max() <= 5e-4 * (1.0 + np.abs(exact).max())
