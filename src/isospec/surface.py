"""Discrete closed surfaces (flat torus grids, triangle meshes) and nodal fields.

Two backends are supported: a periodic structured grid on a flat torus,
whose spectrum has a closed form useful for validation, and general
closed triangle meshes read from OFF files.  Both are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse

from . import expressions
from .errors import (
    DegenerateTriangleError,
    GridTooSmallError,
    MeshParseError,
    MeshTopologyError,
    SurfaceMismatchError,
)

logger = logging.getLogger(__name__)

MIN_GRID_DIM = 4


class SurfaceKind(Enum):
    TORUS_GRID = "torus_grid"
    TRIANGLE_MESH = "triangle_mesh"


class PerturbationSide(Enum):
    """Which conformal family is being expanded.

    INVERSE_METRIC scales the metric on 1-forms by (1 + t f1 + t^2 f2);
    METRIC scales the metric itself by (1 + t f1).
    """

    INVERSE_METRIC = "inverse_metric"
    METRIC = "metric"


@dataclass(frozen=True)
class DiscreteSurface:
    """A closed discrete surface.

    Attributes
    ----------
    kind : SurfaceKind
        Backend discriminator.
    node_count : int
        Number of sample points (grid nodes or mesh vertices).
    nx, ny : int | None
        Grid dimensions (torus only).  Node ``i`` sits at grid position
        ``(i // ny, i % ny)`` -- row-major enumeration, fixed so operator
        matrices are bit-reproducible.
    lx, ly : float | None
        Torus periods (torus only).
    vertices : np.ndarray | None
        ``(node_count, 3)`` vertex coordinates (mesh only).
    faces : np.ndarray | None
        ``(F, 3)`` triangle vertex indices, consistently oriented (mesh only).
    euler_characteristic : int | None
        ``V - E + F`` (mesh only).
    genus : int | None
        ``(2 - euler_characteristic) / 2`` (mesh only).
    triangle_areas : np.ndarray | None
        Read-only ``(F,)`` area of each face (mesh only).
    area : float | None
        Total area of the base metric: ``lx * ly`` on a torus, the sum of
        ``triangle_areas`` on a mesh.
    """

    kind: SurfaceKind
    node_count: int
    nx: int | None = None
    ny: int | None = None
    lx: float | None = None
    ly: float | None = None
    vertices: np.ndarray | None = field(default=None, repr=False)
    faces: np.ndarray | None = field(default=None, repr=False)
    euler_characteristic: int | None = None
    genus: int | None = None
    triangle_areas: np.ndarray | None = field(default=None, repr=False)
    area: float | None = None

    @property
    def cell_area(self):
        """Uniform cell area of the torus grid."""
        return self.area / (self.nx * self.ny)

    def node_coordinates(self):
        """Coordinates usable in field expressions, keyed by name.

        Torus nodes expose ``x`` and ``y`` (z does not exist on the
        2-coordinate chart); mesh vertices expose ``x``, ``y``, ``z``.
        """
        if self.kind is SurfaceKind.TORUS_GRID:
            hx = self.lx / self.nx
            hy = self.ly / self.ny
            ix, iy = np.divmod(np.arange(self.node_count), self.ny)
            return {"x": ix * hx, "y": iy * hy}
        v = self.vertices
        return {"x": v[:, 0], "y": v[:, 1], "z": v[:, 2]}


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function sampled at the nodes of a surface."""

    surface: DiscreteSurface
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != (self.surface.node_count,):
            raise ValueError(
                f"field has {vals.shape} values for {self.surface.node_count} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ConformalPerturbation:
    """Coefficients of a conformal perturbation, truncated at second order.

    ``side`` selects whether (1 + t f1 + t^2 f2) multiplies the inverse
    metric or (1 + t f1) multiplies the metric.  The metric side is first
    order only: its reciprocal expansion fixes the second-order data, so a
    nonzero ``f2`` is rejected there.
    """

    side: PerturbationSide
    f1: ScalarField
    f2: ScalarField | None = None

    def __post_init__(self):
        if self.f2 is not None:
            if self.f2.surface is not self.f1.surface:
                raise SurfaceMismatchError("f1 and f2 live on different surfaces")
            if self.side is PerturbationSide.METRIC and np.any(self.f2.values != 0.0):
                raise ValueError(
                    "metric-side perturbations are first order only; f2 must be zero"
                )

    @property
    def surface(self):
        return self.f1.surface

    def f2_values(self):
        if self.f2 is None:
            return np.zeros(self.surface.node_count)
        return self.f2.values


def make_torus(nx, ny, lx, ly):
    """Build a flat-torus grid surface.

    Parameters
    ----------
    nx, ny : int
        Grid dimensions, at least 4 each, whose nx*ny float64 values fit
        the address space.
    lx, ly : float
        Torus periods, strictly positive.
    """
    nx, ny = int(nx), int(ny)
    if nx < MIN_GRID_DIM or ny < MIN_GRID_DIM:
        raise GridTooSmallError(
            f"torus grid must be at least {MIN_GRID_DIM}x{MIN_GRID_DIM}, got {nx}x{ny}"
        )
    if nx * ny * 8 > np.iinfo(np.intp).max:
        raise GridTooSmallError(
            f"torus grid {nx}x{ny} is too large: {nx * ny} float64 node values "
            "exceed the address space"
        )
    if not (lx > 0 and ly > 0):
        raise GridTooSmallError(f"torus periods must be positive, got {lx}, {ly}")
    # 1/h^2 = 0 leaves no stiffness; the spectrum of the 5-point stencil
    # reaches 4/hx^2 + 4/hy^2, which the solvers need finite
    inverse_squares = [
        1.0 / (h * h) if h * h > 0.0 else math.inf for h in (lx / nx, ly / ny)
    ]
    if min(inverse_squares) == 0.0 or not math.isfinite(4.0 * sum(inverse_squares)):
        raise GridTooSmallError(
            f"torus periods {lx}, {ly} give 1/h^2 = 0 or a non-finite "
            "spectral bound 4/hx^2 + 4/hy^2"
        )
    return DiscreteSurface(
        kind=SurfaceKind.TORUS_GRID,
        node_count=nx * ny,
        nx=nx,
        ny=ny,
        lx=float(lx),
        ly=float(ly),
        area=float(lx) * float(ly),
    )


def load_mesh(path):
    """Load a closed triangle mesh from an ASCII OFF file.

    Numbers are read by numpy, so tokens that only Python's ``float`` or
    ``int`` reads (``1_0``, non-ASCII digits) are refused.  Validates
    closedness (every edge shared by exactly two faces), consistent
    orientation, connectedness, and one disc of faces around every
    vertex (no pinched vertex); rejects anything else.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshParseError(f"{path}: cannot read mesh file: {exc}") from exc
    vertices, faces = _parse_off(text, str(path))
    del text  # not held through the topology check
    return mesh_from_arrays(vertices, faces)


def mesh_from_arrays(vertices, faces):
    """Build a validated TriangleMesh surface from raw arrays.

    After the topology check, computes each triangle's area and refuses a
    triangle whose area is at most 1e-14 times the largest.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    faces = np.ascontiguousarray(np.asarray(faces, dtype=np.int64))
    chi = _validate_mesh_topology(vertices, faces)
    areas, area = _triangle_areas(vertices, faces)
    for array in (vertices, faces, areas):
        array.flags.writeable = False
    surf = DiscreteSurface(
        kind=SurfaceKind.TRIANGLE_MESH,
        node_count=vertices.shape[0],
        vertices=vertices,
        faces=faces,
        euler_characteristic=chi,
        genus=(2 - chi) // 2,
        triangle_areas=areas,
        area=area,
    )
    logger.info(
        "loaded mesh: %d vertices, %d faces, genus %d",
        surf.node_count,
        faces.shape[0],
        surf.genus,
    )
    return surf


def icosphere_arrays(subdivisions):
    """Vertices/faces of a unit icosphere by icosahedron subdivision."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    vertices = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        midpoint = {}
        new_faces = []

        def midpoint_index(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                mid = vertices[a] + vertices[b]
                vertices.append(mid / np.linalg.norm(mid))
                midpoint[key] = len(vertices) - 1
            return midpoint[key]

        for a, b, c in faces:
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    return np.array(vertices), np.array(faces, dtype=np.int64)


def field_from_expression(surface, text):
    """Sample an expression of the node coordinates at every node.

    The expression language supports ``x``, ``y`` (``z`` on meshes),
    ``pi``, arithmetic, ``sin``, ``cos`` and ``pow``.
    """
    values = expressions.evaluate(text, surface.node_coordinates())
    return ScalarField(surface, values)


def constant_field(surface, value):
    return ScalarField(surface, np.full(surface.node_count, float(value)))


def fourier_fields(surface, count):
    """The first ``count`` real Fourier fields on a torus grid.

    Ordered by frequency magnitude |k|^2 and then lexicographically in
    (m, n): the constant, then cos/sin of 2*pi*(m x / lx + n y / ly) for
    (m, n) = (0,1), (1,0), (1,-1), (1,1), (0,2), ...  Deterministic.
    """
    if surface.kind is not SurfaceKind.TORUS_GRID:
        raise SurfaceMismatchError("fourier_fields requires a torus grid surface")
    coords = surface.node_coordinates()
    x, y = coords["x"], coords["y"]
    fields = [constant_field(surface, 1.0)]
    if count <= 1:
        return fields[:count]
    # enumerate one representative (m, n) per +/- pair, lowest |k|^2 first
    kmax = int(np.ceil(np.sqrt(count))) + 1
    reps = []
    for m in range(-kmax, kmax + 1):
        for n in range(-kmax, kmax + 1):
            if m > 0 or (m == 0 and n > 0):
                reps.append((m * m + n * n, m, n))
    reps.sort()
    for _, m, n in reps:
        phase = 2.0 * np.pi * (m * x / surface.lx + n * y / surface.ly)
        fields.append(ScalarField(surface, np.cos(phase)))
        if len(fields) >= count:
            break
        fields.append(ScalarField(surface, np.sin(phase)))
        if len(fields) >= count:
            break
    return fields[:count]


def _parse_off(text, name):
    """Vertex and face arrays of OFF text, naming the first malformed line.

    Rows are the lines of ``str.splitlines`` with comments (``#`` to the
    end of the line) cut and blank rows dropped.  Each block is read by one
    ``np.loadtxt`` over its rows; only a block it refuses is read again a
    row at a time, to name the first bad line.
    """
    rows = [row for line in text.splitlines() if (row := line.split("#", 1)[0].strip())]
    if not rows:
        raise MeshParseError(f"{name}: empty file")
    if rows[0] != "OFF":
        raise MeshParseError(f"{name}: missing OFF header, got {rows[0]!r}")
    if len(rows) < 2:
        raise MeshParseError(f"{name}: no count line after the OFF header")
    try:
        counts = rows[1].split()
        nv, nf = int(counts[0]), int(counts[1])
    except (IndexError, ValueError) as exc:
        raise MeshParseError(f"{name}: bad count line {rows[1]!r}") from exc
    if nv <= 0 or nf <= 0:
        raise MeshParseError(f"{name}: nonpositive vertex or face count")
    if len(rows) < 2 + nv + nf:
        raise MeshParseError(
            f"{name}: expected {nv} vertex and {nf} face lines, file is short"
        )
    vertex_rows, face_rows = rows[2 : 2 + nv], rows[2 + nv : 2 + nv + nf]
    del rows  # the list's pointers, freed before numpy reads the blocks
    vertices = _read_rows(vertex_rows, float, 3)
    if vertices is None:
        _raise_first_fault(vertex_rows, _vertex_fault, name)
    faces = _read_rows(face_rows, np.int64, 4)
    if faces is None or np.any(faces[:, 0] != 3):
        _raise_first_fault(face_rows, _face_fault, name)
    if not np.all(np.isfinite(vertices)):
        raise MeshParseError(f"{name}: non-finite vertex coordinates")
    return vertices, np.ascontiguousarray(faces[:, 1:])


def _read_rows(rows, dtype, columns):
    """The first ``columns`` fields of every row by np.loadtxt, or None if refused.

    A numpy warning is a refusal whatever the caller's warning filters:
    numpy releases that only warn when they read an index such as '1.5'
    through float would otherwise load a different mesh.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                rows, dtype=dtype, comments=None, usecols=range(columns), ndmin=2
            )
    except (ValueError, Warning):
        return None


def _raise_first_fault(rows, fault, name):
    """Raise the message of the first row at fault in a refused block.

    Every block passed here has one: numpy refuses a block only when it
    refuses one of its rows read alone, and a face of another arity is at
    fault too.
    """
    for i, row in enumerate(rows):
        message = fault(i, row)
        if message:
            raise MeshParseError(f"{name}: {message}")


def _vertex_fault(i, row):
    fields = len(row.split())
    if fields < 3:
        return f"vertex line {i} has {fields} fields"
    if _read_rows([row], float, 3) is None:
        return f"bad vertex line {i}"
    return None


def _face_fault(i, row):
    parts = row.split()
    try:
        arity = int(parts[0])  # Python's int: an arity beyond int64 is not a triangle
    except ValueError:
        return f"bad face line {i}"
    if arity != 3 or len(parts) < 4:
        return f"face {i} is not a triangle"
    if _read_rows([row], np.int64, 4) is None:
        return f"bad face line {i}"
    return None


# coordinates far from unit scale over- or underflow the areas to a
# non-finite value, which OperatorPair.validate() rejects; numpy stays silent
@np.errstate(over="ignore", invalid="ignore")
def _triangle_areas(vertices, faces):
    """(areas, total) of the faces; refuses a degenerate triangle."""
    v0, v1, v2 = (vertices[faces[:, i]] for i in range(3))
    areas = 0.5 * _cross_norms(np.cross(v1 - v0, v2 - v0))
    # against the largest area, which stays finite where a mean overflows:
    # a mesh without area is degenerate, an infinite area fails validate()
    largest = areas.max()
    bad = np.flatnonzero(areas <= 1e-14 * largest) if largest < np.inf else []
    if len(bad):
        raise DegenerateTriangleError(
            f"triangle {int(bad[0])} has area {areas[bad[0]]:.3e} "
            f"<= 1e-14 x largest area {largest:.3e}"
        )
    return areas, float(areas.sum())


def _cross_norms(cross):
    """Euclidean norms of the rows of cross, each row scaled by a power of two first.

    np.linalg.norm squares the components, which overflow beyond about
    1e154 and underflow below about 1e-154 although the norm is finite
    and nonzero.  Scaling by a power of two is exact, so wherever the
    squares neither overflow nor underflow the norms equal np.linalg.norm
    bit for bit.
    """
    _, exponents = np.frexp(np.abs(cross).max(axis=1))
    return np.ldexp(np.linalg.norm(np.ldexp(cross, -exponents[:, None]), axis=1), exponents)


def _validate_mesh_topology(vertices, faces):
    """Check for a closed, oriented, connected 2-manifold; returns its Euler characteristic."""
    from scipy.sparse.csgraph import connected_components  # lazy: keeps `import isospec.cli` light

    nv = vertices.shape[0]
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise MeshTopologyError("faces must be an (F, 3) index array")
    if faces.min() < 0 or faces.max() >= nv:
        raise MeshTopologyError("face index out of range")
    if np.any(
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 0] == faces[:, 2])
    ):
        raise MeshTopologyError("face with a repeated vertex")

    # directed edges (a, b), (b, c), (c, a) of each face, in face order;
    # edge e is entry e + 1 of the matrix, so a repeated edge sums one away
    tails = faces.ravel()
    heads = faces[:, [1, 2, 0]].ravel()
    count = tails.shape[0]
    edges = scipy.sparse.csr_array(
        (np.arange(1, count + 1), (tails, heads)), shape=(nv, nv)
    )
    if edges.nnz < count:
        _, first = np.unique(tails * nv + heads, return_index=True)
        repeats = np.ones(count, dtype=bool)
        repeats[first] = False
        e = int(np.flatnonzero(repeats)[0])
        key = (int(tails[e]), int(heads[e]))
        raise MeshTopologyError(
            f"directed edge {key} appears twice: inconsistent orientation "
            "or non-manifold edge"
        )
    # one more than the index of each edge's opposite, 0 on the boundary
    opposite = edges[heads, tails]
    if not opposite.all():
        e = int(np.flatnonzero(opposite == 0)[0])
        u, v = sorted((int(tails[e]), int(heads[e])))
        raise MeshTopologyError(f"boundary edge ({u}, {v}): surface is not closed")
    orphans = np.flatnonzero(np.diff(edges.indptr) == 0)
    if orphans.size:
        raise MeshTopologyError(f"vertex {orphans[0]} belongs to no face")
    # every edge has its opposite, so the strong components are the connected ones
    if connected_components(edges, connection="strong", return_labels=False) > 1:
        raise MeshTopologyError("mesh is disconnected")
    del edges

    # a closed oriented 2-manifold has an even chi; an odd one is a pinch
    # the check below would also find, named by the older message
    chi = nv - count // 2 + faces.shape[0]
    if chi % 2 != 0:
        raise MeshTopologyError(f"Euler characteristic {chi} is odd")
    # corner 3f + i sits at faces[f, i]; the next corner around its vertex
    # lies in the face across its outgoing edge 3f + i.  The corners then
    # form one cycle per vertex, unless a vertex is pinched between fans
    across = opposite - 1
    turn = scipy.sparse.csr_array(
        (np.ones(count), across + np.where(across % 3 == 2, -2, 1), np.arange(count + 1)),
        shape=(count, count),
    )
    cycles, labels = connected_components(turn, connection="strong")
    if cycles > nv:
        _, first = np.unique(labels, return_index=True)
        fans = np.bincount(tails[first], minlength=nv)
        v = int(np.flatnonzero(fans > 1)[0])
        raise MeshTopologyError(
            f"vertex {v} is pinched: its faces form {fans[v]} fans, not one disc"
        )
    return chi
