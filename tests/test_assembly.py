import numpy as np
import pytest
import scipy.sparse as sp

from isospec import eigen
from isospec.assembly import (
    analytic_area,
    assemble_base,
    check_positive,
    conformal_factor,
    conformal_operators,
    exact_perturbed_pair,
)
from isospec.errors import (
    DegenerateTriangleError,
    PositivityError,
    SurfaceMismatchError,
)
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    constant_field,
    field_from_expression,
    icosphere_arrays,
    load_mesh,
    make_torus,
    mesh_from_arrays,
)
from conftest import OCTAHEDRON_OFF
from reference import generic_operators


def test_pair_validates(pair16):
    pair16.validate()


def test_torus_first_eigenvalue(pair16):
    spectral = eigen.solve(pair16, 3)
    assert abs(spectral.eigenvalues[0]) <= 1e-10
    target = 4.0 * np.pi**2
    rel = abs(spectral.eigenvalues[1] - target) / target
    assert rel <= (np.pi / 16) ** 2  # O(h^2) envelope, c ~ 1
    assert rel >= (np.pi / 16) ** 2 / 6  # and genuinely second order


def test_constant_annihilated(pair16, octahedron_path):
    ones = np.ones(pair16.node_count)
    scale = np.abs(pair16.stiffness.toarray()).max()
    assert np.abs(pair16.stiffness @ ones).max() <= 1e-10 * scale

    mesh_pair = assemble_base(load_mesh(octahedron_path))
    ones = np.ones(mesh_pair.node_count)
    scale = np.abs(mesh_pair.stiffness.toarray()).max()
    assert np.abs(mesh_pair.stiffness @ ones).max() <= 1e-10 * scale


def test_stiffness_symmetric_random_vectors(pair16, rng):
    k_norm = sp.linalg.norm(pair16.stiffness)
    for _ in range(5):
        u = rng.standard_normal(pair16.node_count)
        v = rng.standard_normal(pair16.node_count)
        gap = abs(u @ (pair16.stiffness @ v) - v @ (pair16.stiffness @ u))
        assert gap <= 1e-12 * k_norm * np.linalg.norm(u) * np.linalg.norm(v)


def test_total_mass_is_area(pair16, octahedron_path):
    assert pair16.mass.sum() == pytest.approx(1.0, rel=1e-10)
    mesh_pair = assemble_base(load_mesh(octahedron_path))
    # octahedron with unit-length axes: 8 triangles of side sqrt(2)
    assert mesh_pair.mass.sum() == pytest.approx(4.0 * np.sqrt(3.0), rel=1e-10)
    assert analytic_area(mesh_pair.surface) == pytest.approx(
        4.0 * np.sqrt(3.0), rel=1e-10
    )


def test_zero_area_triangle_rejected():
    vertices = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],  # north pole collapsed onto vertex 0
            [0.0, 0.0, -1.0],
        ]
    )
    faces = np.array(
        [
            [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
        ]
    )
    surface = mesh_from_arrays(vertices, faces)
    with pytest.raises(DegenerateTriangleError):
        assemble_base(surface)


def test_mesh_spectrum_near_sphere(icosphere_path):
    # coarse icosphere: low Laplace eigenvalues approximate l(l+1)
    pair = assemble_base(load_mesh(icosphere_path))
    spectral = eigen.solve(pair, 9)
    lam = spectral.eigenvalues
    assert abs(lam[0]) <= 1e-10
    assert np.allclose(lam[1:4], 2.0, rtol=0.1)
    assert np.allclose(lam[4:9], 6.0, rtol=0.15)


def test_conformal_operators_inverse_side(pair16):
    surface = pair16.surface
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=constant_field(surface, 0.3),
        f2=constant_field(surface, 0.1),
    )
    ops = conformal_operators(pair16, pert)
    assert np.allclose(ops.h1_multiplier, 0.3)
    assert np.allclose(ops.h2_multiplier, 0.1)
    assert np.allclose(ops.g1, -0.3)
    assert np.allclose(ops.g2, 0.3**2 - 0.1)
    v = np.arange(pair16.node_count, dtype=float)
    assert np.allclose(ops.apply_h1(v), 0.3 * pair16.apply_laplacian(v))


def test_conformal_operators_metric_side(pair16):
    surface = pair16.surface
    f = field_from_expression(surface, "cos(2*pi*x)")
    pert = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    ops = conformal_operators(pair16, pert)
    assert np.allclose(ops.h1_multiplier, -f.values)
    assert np.allclose(ops.h2_multiplier, f.values**2)
    assert np.allclose(ops.g1, f.values)
    assert np.allclose(ops.g2, 0.0)


def test_conformal_operators_zero(pair16):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=constant_field(pair16.surface, 0.0),
    )
    ops = conformal_operators(pair16, pert)
    for arr in (ops.h1_multiplier, ops.h2_multiplier, ops.g1, ops.g2):
        assert np.all(arr == 0.0)


def test_conformal_operators_surface_mismatch(pair16):
    other = make_torus(8, 8, 1.0, 1.0)
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC, f1=constant_field(other, 0.1)
    )
    with pytest.raises(SurfaceMismatchError):
        conformal_operators(pair16, pert)


def test_h1_factor_symmetric_wrt_mass(pair16):
    # H1 = F1 Laplacian with F1 diagonal: M0 F1 must equal (M0 F1)^T
    f = field_from_expression(pair16.surface, "cos(2*pi*x)")
    product = pair16.mass * f.values
    assert np.array_equal(product, product)  # diagonal, trivially symmetric


def test_exact_pair_identity_at_zero(pair16):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=constant_field(pair16.surface, 0.5),
    )
    assert exact_perturbed_pair(pair16, pert, 0.0) is pair16


def test_exact_pair_constant_scaling(pair16):
    c = 0.4
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=constant_field(pair16.surface, c),
    )
    t = 0.25
    base = eigen.solve(pair16, 6).eigenvalues
    moved = eigen.solve(exact_perturbed_pair(pair16, pert, t), 6).eigenvalues
    assert np.allclose(moved, (1.0 + t * c) * base, rtol=1e-10, atol=1e-9)


def test_exact_pair_shares_stiffness(pair16):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=field_from_expression(pair16.surface, "cos(2*pi*x)"),
    )
    for t in (0.01, -0.3, 0.5):
        assert exact_perturbed_pair(pair16, pert, t).stiffness is pair16.stiffness


def test_exact_pair_positivity_guard(pair16):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC,
        f1=field_from_expression(pair16.surface, "cos(2*pi*x)"),
    )
    with pytest.raises(PositivityError) as info:
        exact_perturbed_pair(pair16, pert, -1.5)
    assert info.value.node_index is not None


def test_check_positive_names_a_nan_node():
    with pytest.raises(PositivityError) as info:
        check_positive(np.array([1.0, np.nan, 2.0]), "factor")
    assert info.value.node_index == 1


def test_conformal_factor_both_sides(pair16):
    surface = pair16.surface
    f = constant_field(surface, 0.5)
    inverse = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
    metric = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    assert np.allclose(conformal_factor(inverse, 0.2), 1.1)
    assert np.allclose(conformal_factor(metric, 0.2), 1.0 / 1.1)


def test_metric_side_exact_family_matches_reciprocal(pair16):
    f = field_from_expression(pair16.surface, "cos(2*pi*x)")
    pert = ConformalPerturbation(side=PerturbationSide.METRIC, f1=f)
    t = 0.05
    pair_t = exact_perturbed_pair(pair16, pert, t)
    c = 1.0 / (1.0 + t * f.values)
    assert np.allclose(pair_t.mass, pair16.mass / c, rtol=1e-14)


def test_generic_operators_adjoint(pair16, rng):
    n = pair16.node_count
    sym = rng.standard_normal((n, n))
    sym = sym + sym.T
    h1 = sym / pair16.mass[:, None]  # M0 H1 symmetric
    ops = generic_operators(pair16, h1)
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    lhs = w @ (pair16.mass * ops.apply_h1(v))
    rhs = v @ (pair16.mass * ops.apply_h1_adjoint(w))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_perturbation_adjoint_identity(pair16, rng):
    f = field_from_expression(pair16.surface, "cos(2*pi*x)*cos(2*pi*y)")
    pert = ConformalPerturbation(side=PerturbationSide.INVERSE_METRIC, f1=f)
    ops = conformal_operators(pair16, pert)
    v = rng.standard_normal(pair16.node_count)
    w = rng.standard_normal(pair16.node_count)
    lhs = w @ (pair16.mass * ops.apply_h1(v))
    rhs = v @ (pair16.mass * ops.apply_h1_adjoint(w))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def _octahedron(scale):
    lines = OCTAHEDRON_OFF.splitlines()
    vertices = np.array([[float(x) for x in line.split()] for line in lines[2:8]])
    faces = np.array([[int(i) for i in line.split()[1:]] for line in lines[8:16]])
    return mesh_from_arrays(scale * vertices, faces)


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e150, 1e-150])
def test_scaled_octahedron_spectrum_and_area(scale):
    # areas near 1e300 or 1e-300 are finite although their squares are not
    unit = eigen.solve(assemble_base(_octahedron(1.0)), 6).eigenvalues
    scaled = eigen.solve(assemble_base(_octahedron(scale)), 6).eigenvalues
    assert np.abs(scaled * scale**2 - unit).max() <= 1e-12 * unit.max()
    area = analytic_area(_octahedron(scale))
    assert area / scale**2 == pytest.approx(4.0 * np.sqrt(3.0), rel=1e-12)


def test_flattened_octahedron_is_degenerate():
    # every vertex on the x axis: all areas are zero, and so is the largest
    flat = np.zeros((6, 3))
    flat[:, 0] = np.arange(6.0)
    surface = mesh_from_arrays(flat, _octahedron(1.0).faces)
    with pytest.raises(DegenerateTriangleError, match="largest area 0.000e"):
        assemble_base(surface)
