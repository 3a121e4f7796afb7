import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from isospec.surface import _parse_off, _parse_off_blocks, _parse_off_lines

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


def test_face_index_beyond_int64_is_a_parse_error(tmp_path):
    path = tmp_path / "huge.off"
    path.write_text(
        "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 1 99999999999999999999999\n3 0 2 3\n3 0 3 1\n3 1 3 2\n"
    )
    with pytest.raises(MeshParseError, match="bad face line 0"):
        load_mesh(path)


def test_off_rows_of_uneven_width_parse_line_by_line(tmp_path):
    # trailing fields (colours, say) on some lines only: the first three
    # coordinates and the first three indices count, as in a uniform file
    vertices, faces = icosphere_arrays(1)
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) + (" 0.5" if i % 3 == 0 else "")
              for i, v in enumerate(vertices)]
    lines += ["3 " + " ".join(str(int(j)) for j in f) + (" 255 0 0" if i % 4 == 0 else "")
              for i, f in enumerate(faces)]
    path = tmp_path / "uneven.off"
    path.write_text("\n".join(lines) + "\n")
    surface = load_mesh(path)
    assert np.array_equal(surface.vertices, vertices)
    assert np.array_equal(surface.faces, faces)


def test_load_mesh_holds_a_few_times_the_file(tmp_path):
    # ico5 (10,242 vertices): one str and one list of str per line held
    # 16.3 x the file; the array parse holds 2.4 x, and the topology
    # check's edge arrays now set the peak, 6.8 x
    path = write_off(tmp_path / "ico5.off", *icosphere_arrays(5))
    tracemalloc.start()
    try:
        load_mesh(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * path.stat().st_size


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


# -------------------------------------------------- OFF parse: blocks and lines

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_FORMATS = (repr, "{:.6e}".format, "{:.17g}".format, "{:+.17g}".format)


@st.composite
def off_texts(draw):
    """A well-formed OFF text: comments, blank lines, extra fields, CRLF, trailing lines."""
    nv = draw(st.integers(1, 6))
    nf = draw(st.integers(1, 6))
    gap = st.sampled_from([" ", "\t", "  ", " \t "])

    def row(tokens):
        text = draw(gap).join(tokens)
        if draw(st.booleans()):
            text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))
        if draw(st.integers(0, 4)) == 0:
            text += " # " + draw(st.sampled_from(["note", "1 2 3", "#", ""]))
        return text

    lines = ["OFF" + draw(st.sampled_from(["", " ", " # header"]))]
    lines.append(row([str(nv), str(nf)] + draw(st.sampled_from([[], ["0"], ["12"]]))))
    for _ in range(nv):
        coords = [draw(st.sampled_from(_FLOAT_FORMATS))(draw(_FLOATS)) for _ in range(3)]
        extra = draw(st.sampled_from([[], ["0.5"], ["1", "0", "0", "1"], ["rgb"]]))
        lines.append(row(coords + extra))
    for _ in range(nf):
        corners = [str(draw(st.integers(0, 2**63 - 1))) for _ in range(3)]
        colour = draw(st.sampled_from([[], ["255", "0", "0"], ["0.2", "0.3", "0.4", "1.0"]]))
        lines.append(row(["3"] + corners + colour))
    lines += draw(st.lists(st.sampled_from(["junk", "1 2", "3 0 1"]), max_size=2))
    # comment-only and blank lines anywhere, the first line included
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "\t", "# comment", "  # x"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end, end + "  "]))


def _same_arrays(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=off_texts())
def test_off_blocks_equal_lines_bit_for_bit(text):
    # numpy warns of blank lines within max_rows; none may reach it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = _parse_off_blocks(text)
    assert _same_arrays(blocks, _parse_off_lines(text, "mesh.off"))
    assert all(array.flags.c_contiguous for array in blocks)


def _break_off(text, how, draw):
    lines = text.replace("\r\n", "\n").split("\n")
    rows = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    nv, nf = (int(c) for c in lines[rows[1]].split("#", 1)[0].split()[:2])
    vertex_rows, face_rows = rows[2 : 2 + nv], rows[2 + nv : 2 + nv + nf]
    if how == "short":
        return "\n".join(lines[: draw(st.sampled_from(vertex_rows + face_rows))])
    if how == "bad token":
        at = draw(st.sampled_from(vertex_rows + face_rows))
        # 1.5 and 1e3 are good coordinates but bad indices
        bad = ["abc", "--1", "0x1", "1,5"] + ([] if at in vertex_rows else ["1.5", "1e3"])
        token = draw(st.sampled_from(bad))
    elif how == "non-triangle":
        at = draw(st.sampled_from(face_rows))
        token = "4 0 1 2 3"
    else:
        at = draw(st.sampled_from(vertex_rows))
        token = draw(st.sampled_from(["nan", "inf", "-Infinity", "1e999"]))
    parts = lines[at].split("#", 1)[0].split()
    if how == "non-triangle":
        parts = [token]
    else:
        parts[draw(st.integers(0 if at in vertex_rows else 1, 2))] = token
    lines[at] = " ".join(parts)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    text=off_texts(),
    how=st.sampled_from(["short", "bad token", "non-triangle", "non-finite"]),
    data=st.data(),
)
def test_malformed_off_gives_the_line_by_line_message(text, how, data):
    broken = _break_off(text, how, data.draw)
    with pytest.raises(MeshParseError) as by_lines:
        _parse_off_lines(broken, "mesh.off")
    # under filters that let warnings through, as outside the test suite:
    # the parse must not depend on a warning being an error, and no
    # warning may reach the caller
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MeshParseError) as parsed:
            _parse_off(broken, "mesh.off")
    assert str(parsed.value) == str(by_lines.value)
    assert caught == []
