import numpy as np
import pytest

from isospec.errors import (
    ExpressionError,
    GridTooSmallError,
    MeshParseError,
    MeshTopologyError,
)
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    ScalarField,
    SurfaceKind,
    constant_field,
    field_from_expression,
    fourier_fields,
    icosphere_arrays,
    load_mesh,
    make_torus,
    mesh_from_arrays,
)

from conftest import write_off


def test_torus_square_grid_counts():
    surface = make_torus(8, 8, 1.0, 1.0)
    assert surface.kind is SurfaceKind.TORUS_GRID
    assert surface.node_count == 64
    assert surface.cell_area == pytest.approx(1.0 / 64.0, rel=0, abs=0)


def test_torus_rectangular_cell_area():
    surface = make_torus(4, 16, 2.0, 1.0)
    assert surface.node_count == 64
    assert surface.cell_area == pytest.approx(2.0 / 64.0)


def test_torus_too_small():
    with pytest.raises(GridTooSmallError):
        make_torus(3, 8, 1.0, 1.0)


def test_torus_row_major_coordinates():
    surface = make_torus(4, 8, 2.0, 1.0)
    coords = surface.node_coordinates()
    i = 2 * 8 + 5  # ix=2, iy=5
    assert coords["x"][i] == pytest.approx(2.0 * 2 / 4)
    assert coords["y"][i] == pytest.approx(1.0 * 5 / 8)


def test_torus_deterministic():
    a = make_torus(6, 6, 1.0, 1.0).node_coordinates()
    b = make_torus(6, 6, 1.0, 1.0).node_coordinates()
    assert np.array_equal(a["x"], b["x"])
    assert np.array_equal(a["y"], b["y"])


def test_octahedron_mesh_valid(octahedron_path):
    surface = load_mesh(octahedron_path)
    assert surface.kind is SurfaceKind.TRIANGLE_MESH
    assert surface.node_count == 6
    assert surface.euler_characteristic == 2
    assert surface.genus == 0
    surface.validate()  # idempotent re-validation
    surface.validate()


def test_icosphere_mesh_valid(icosphere_path):
    surface = load_mesh(icosphere_path)
    assert surface.node_count == 42
    assert surface.euler_characteristic == 2
    assert surface.genus == 0


def test_single_triangle_rejected(tmp_path):
    path = write_off(
        tmp_path / "tri.off",
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
        [(0, 1, 2)],
    )
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_missing_face_rejected(tmp_path):
    vertices, faces = icosphere_arrays(1)
    path = write_off(tmp_path / "holed.off", vertices, faces[:-1])
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_inconsistent_orientation_rejected(tmp_path):
    vertices, faces = icosphere_arrays(1)
    flipped = faces.copy()
    flipped[0] = flipped[0][::-1]
    path = write_off(tmp_path / "flipped.off", vertices, flipped)
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_disconnected_mesh_rejected(tmp_path):
    vertices, faces = icosphere_arrays(0)
    shifted = vertices + np.array([10.0, 0.0, 0.0])
    two = np.vstack([vertices, shifted])
    far = np.vstack([faces, faces + len(vertices)])
    path = write_off(tmp_path / "two.off", two, far)
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_repeated_vertex_face_rejected():
    vertices, faces = icosphere_arrays(0)
    bad = faces.copy()
    bad[0][1] = bad[0][0]
    with pytest.raises(MeshTopologyError):
        mesh_from_arrays(vertices, bad)


def test_bad_off_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("PLY\n3 1 0\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text(
        "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    )
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_constant_expression_field(torus16):
    field = field_from_expression(torus16, "1")
    assert np.array_equal(field.values, np.ones(torus16.node_count))


def test_cosine_expression_field(torus16):
    field = field_from_expression(torus16, "cos(2*pi*x)")
    coords = torus16.node_coordinates()
    assert np.allclose(field.values, np.cos(2 * np.pi * coords["x"]), atol=1e-15)


def test_unsupported_expression(torus16):
    with pytest.raises(ExpressionError):
        field_from_expression(torus16, "bessel(x)")


def test_field_length_checked(torus16):
    with pytest.raises(ValueError):
        ScalarField(torus16, np.ones(3))


def test_field_finiteness_checked(torus16):
    values = np.ones(torus16.node_count)
    values[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(torus16, values)


def test_constant_field_helper(torus16):
    field = constant_field(torus16, 2.5)
    assert np.all(field.values == 2.5)


def test_metric_side_rejects_f2(torus16):
    f1 = constant_field(torus16, 0.1)
    f2 = constant_field(torus16, 0.2)
    with pytest.raises(ValueError):
        ConformalPerturbation(side=PerturbationSide.METRIC, f1=f1, f2=f2)
    # inverse-metric side accepts a second-order term
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC, f1=f1, f2=f2
    )
    assert np.all(pert.f2_values() == 0.2)


def test_perturbation_default_f2(torus16):
    pert = ConformalPerturbation(
        side=PerturbationSide.INVERSE_METRIC, f1=constant_field(torus16, 0.1)
    )
    assert np.all(pert.f2_values() == 0.0)


def test_fourier_fields_basis(torus16):
    fields = fourier_fields(torus16, 9)
    assert len(fields) == 9
    coords = torus16.node_coordinates()
    assert np.allclose(fields[0].values, 1.0)
    assert np.allclose(fields[1].values, np.cos(2 * np.pi * coords["y"]))
    assert np.allclose(fields[2].values, np.sin(2 * np.pi * coords["y"]))
    assert np.allclose(fields[3].values, np.cos(2 * np.pi * coords["x"]))
    # nonconstant members integrate to zero on the uniform grid
    for f in fields[1:]:
        assert abs(f.values.sum()) < 1e-10 * torus16.node_count
    # distinct frequencies stay linearly independent as grid functions
    stack = np.stack([f.values for f in fields])
    assert np.linalg.matrix_rank(stack) == 9
