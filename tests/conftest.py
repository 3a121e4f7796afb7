import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from isospec import eigen
from isospec.assembly import assemble_base
from isospec.surface import icosphere_arrays, make_torus

OCTAHEDRON_OFF = """OFF
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""

# test runs leave no .hypothesis/ directory in the checkout: no example
# database, and the constants cache hypothesis keeps goes to the temp dir
settings.register_profile("isospec", database=None)
settings.load_profile("isospec")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "isospec-hypothesis"))


def write_off(path, vertices, faces):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    for v in vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    for f in faces:
        lines.append("3 " + " ".join(str(int(i)) for i in f))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def torus16():
    return make_torus(16, 16, 1.0, 1.0)


@pytest.fixture(scope="session")
def pair16(torus16):
    return assemble_base(torus16)


@pytest.fixture(scope="session")
def octahedron_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "octahedron.off"
    path.write_text(OCTAHEDRON_OFF)
    return path


@pytest.fixture(scope="session")
def icosphere_path(tmp_path_factory):
    vertices, faces = icosphere_arrays(1)
    return write_off(
        tmp_path_factory.mktemp("mesh") / "icosphere1.off", vertices, faces
    )


@pytest.fixture(scope="session")
def icosphere2_path(tmp_path_factory):
    vertices, faces = icosphere_arrays(2)
    return write_off(
        tmp_path_factory.mktemp("mesh") / "icosphere2.off", vertices, faces
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def solver_counts(monkeypatch):
    """Counts calls into the solver internals while a test runs.

    "lanczos" counts Lanczos runs, "inertia" the LDL^T inertia
    factorizations, "bordered" the bordered factorizations of degeneracy
    groups (the methods of the seam eigen._Kernels), and "modes" lists the
    modes each call of the solve shared by eigen.solve and
    eigen.solve_window returned.
    """
    counts = {"lanczos": 0, "inertia": 0, "bordered": 0, "modes": []}

    def count(key):
        real = getattr(eigen._Kernels, key)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen._Kernels, key, counted)

    for key in ("lanczos", "inertia", "bordered"):
        count(key)
    shared = eigen._solve

    def solve(*args, **kwargs):
        spectral = shared(*args, **kwargs)
        counts["modes"].append(spectral.n_modes)
        return spectral

    monkeypatch.setattr(eigen, "_solve", solve)
    return counts
