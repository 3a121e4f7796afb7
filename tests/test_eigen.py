import csv
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

from isospec import eigen
from isospec.assembly import OperatorPair, assemble_base, conformal_operators
from isospec.errors import ModeCountError, NumericalBreakdownError
from isospec.experiments import finite_difference_corrections
from isospec.perturb import compute_corrections
from isospec.surface import (
    ConformalPerturbation,
    PerturbationSide,
    constant_field,
    icosphere_arrays,
    load_mesh,
    make_torus,
    mesh_from_arrays,
)


def synthetic_pair(k_dense, mass):
    return OperatorPair(
        surface=None,
        stiffness=sp.csr_matrix(np.asarray(k_dense, dtype=float)),
        mass=np.asarray(mass, dtype=float),
    )


def test_first_excited_level_fourfold(pair16):
    spectral = eigen.solve(pair16, 5)
    lam = spectral.eigenvalues
    assert abs(lam[0]) <= 1e-10
    assert np.allclose(lam[1:5], lam[1], rtol=1e-13)
    assert spectral.degeneracy_groups == ((0,), (1, 2, 3, 4))
    h = 1.0 / 16
    symbol = (2.0 / h**2) * (1.0 - np.cos(2 * np.pi * h))
    assert lam[1] == pytest.approx(symbol, rel=1e-12)


def test_ground_mode_constant(pair16, octahedron_path):
    for pair in (pair16, assemble_base(load_mesh(octahedron_path))):
        spectral = eigen.solve(pair, 2)
        psi0 = spectral.eigenvectors[:, 0]
        assert abs(spectral.eigenvalues[0]) <= 1e-10
        assert psi0.std() <= 1e-10 * abs(psi0.mean())
        # normalized constant: value 1/sqrt(area)
        area = pair.mass.sum()
        assert abs(psi0.mean()) == pytest.approx(1.0 / np.sqrt(area), rel=1e-10)


def test_identity_operator_single_group():
    n = 10
    mass = np.linspace(0.5, 2.0, n)
    pair = synthetic_pair(np.diag(mass), mass)  # K = M0
    spectral = eigen.solve(pair, n)
    assert np.allclose(spectral.eigenvalues, 1.0, atol=1e-12)
    assert spectral.degeneracy_groups == (tuple(range(n)),)


def test_degeneracy_partition_examples():
    part = eigen.degeneracy_partition(np.array([0.0, 1.0, 1.0 + 1e-12, 5.0]), 1e-9)
    assert part == ((0,), (1, 2), (3,))
    part = eigen.degeneracy_partition(np.array([0.0, 1.0, 2.0, 3.0]), 1e-9)
    assert part == ((0,), (1,), (2,), (3,))
    part = eigen.degeneracy_partition(np.array([1.0, 1.0, 1.0]), 1e-12)
    assert part == ((0, 1, 2),)


def test_solve_deterministic(pair16):
    a = eigen.solve(pair16, 12)
    b = eigen.solve(pair16, 12)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_sign_convention(pair16):
    spectral = eigen.solve(pair16, 8)
    for n in range(8):
        v = spectral.eigenvectors[:, n]
        assert v[np.argmax(np.abs(v))] > 0.0


def test_orthonormality_and_residuals(pair16):
    spectral = eigen.solve(pair16, 20)
    psi = spectral.eigenvectors
    gram = psi.T @ (pair16.mass[:, None] * psi)
    assert np.abs(gram - np.eye(20)).max() <= 1e-10
    k = pair16.stiffness
    for n in range(20):
        lam = spectral.eigenvalues[n]
        res = k @ psi[:, n] - lam * pair16.mass * psi[:, n]
        norm = np.sqrt(res @ (res / pair16.mass))
        assert norm <= 1e-9 * (1.0 + abs(lam))


def test_subset_matches_full(pair16):
    sub = eigen.solve(pair16, 7)
    full = eigen.solve(pair16, pair16.node_count)
    assert np.allclose(sub.eigenvalues, full.eigenvalues[:7], rtol=1e-11, atol=1e-10)


def test_charpoly_oracle(rng):
    n = 6
    a = rng.integers(-3, 4, size=(n, n)).astype(float)
    k = a @ a.T + n * np.eye(n)  # positive definite, exact small integers
    mass = rng.integers(1, 5, size=n).astype(float)
    pair = synthetic_pair(k, mass)
    spectral = eigen.solve(pair, n)

    s = sympy.Matrix(k.astype(int).tolist())
    m = sympy.diag(*[int(v) for v in mass])
    poly = (m.inv() * s).charpoly()
    roots = sorted(float(r) for r in sympy.nroots(poly, n=30))
    assert np.allclose(spectral.eigenvalues, roots, rtol=1e-8)


def test_mode_count_errors(pair16):
    with pytest.raises(ModeCountError):
        eigen.solve(pair16, 0)
    with pytest.raises(ModeCountError):
        eigen.solve(pair16, pair16.node_count + 1)


def test_tol_deg_range(pair16):
    with pytest.raises(ValueError):
        eigen.solve(pair16, 4, tol_deg=1e-1)
    with pytest.raises(ValueError):
        eigen.solve(pair16, 4, tol_deg=1e-13)


def test_nonpositive_mass_rejected():
    pair = synthetic_pair(np.eye(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(NumericalBreakdownError):
        eigen.solve(pair, 2)


def test_group_lookup(pair16):
    spectral = eigen.solve(pair16, 5)
    ids = spectral.group_ids()
    assert list(ids) == [0, 1, 1, 1, 1]


def test_export_csv_round_trip(pair16, tmp_path):
    spectral = eigen.solve(pair16, 5)
    path = tmp_path / "spectrum.csv"
    spectral.export_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "eigenvalue", "group"]
    assert len(rows) == 6
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(values, spectral.eigenvalues)  # repr round-trips
    assert [int(r[2]) for r in rows[1:]] == [0, 1, 1, 1, 1]


def test_solver_tolerates_scaled_spectra():
    # widely scaled K keeps invariants intact
    surface = make_torus(8, 8, 1.0, 1.0)
    pair = assemble_base(surface)
    scaled = OperatorPair(
        surface=surface, stiffness=pair.stiffness * 1e6, mass=pair.mass
    )
    spectral = eigen.solve(scaled, 6)
    base = eigen.solve(pair, 6)
    assert np.allclose(spectral.eigenvalues, 1e6 * base.eigenvalues, rtol=1e-11)


# ---------------------------------------------------------------- sparse path


@pytest.fixture(scope="module")
def pair48():
    return assemble_base(make_torus(48, 48, 1.0, 1.0))


@pytest.fixture(scope="module")
def pair_ico4():
    return assemble_base(mesh_from_arrays(*icosphere_arrays(4)))


def dense_reference(pair, count):
    """Lowest eigenpairs straight from LAPACK, independent of eigen.solve."""
    inv_sqrt_m = 1.0 / np.sqrt(pair.mass)
    s = inv_sqrt_m[:, None] * pair.stiffness.toarray() * inv_sqrt_m[None, :]
    values, vectors = scipy.linalg.eigh(s, subset_by_index=[0, count - 1])
    return values, inv_sqrt_m[:, None] * vectors


@pytest.fixture(scope="module")
def dense48(pair48):
    return dense_reference(pair48, 30)


@pytest.fixture(scope="module")
def dense_ico4(pair_ico4):
    return dense_reference(pair_ico4, 30)


@pytest.fixture()
def eigsh_calls(monkeypatch):
    calls = []
    real = spla.eigsh

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    return calls


def solve_logged(caplog, pair, n_modes):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="isospec.eigen"):
        spectral = eigen.solve(pair, n_modes)
    return spectral, caplog.text


def scaled_gap(values, reference):
    return np.max(np.abs(values - reference) / (1.0 + np.abs(reference)))


@pytest.mark.parametrize("k", [8, 11, 13, 20])
def test_sparse_torus48_matches_dense_and_symbol(pair48, dense48, caplog, k):
    spectral, log = solve_logged(caplog, pair48, k)
    assert "(sparse, k_ask=" in log
    lam = spectral.eigenvalues
    assert scaled_gap(lam, dense48[0][:k]) <= 1e-10
    h = 1.0 / 48
    s = np.sin(np.pi * h * np.arange(48)) ** 2
    symbol = np.sort(((4.0 / h**2) * (s[:, None] + s[None, :])).ravel())
    assert scaled_gap(lam, symbol[:k]) <= 1e-10


@pytest.mark.parametrize("k", [8, 10, 20])
def test_sparse_ico4_matches_dense(pair_ico4, dense_ico4, caplog, k):
    spectral, log = solve_logged(caplog, pair_ico4, k)
    assert "(sparse, k_ask=" in log
    assert scaled_gap(spectral.eigenvalues, dense_ico4[0][:k]) <= 1e-10


@pytest.mark.parametrize(
    "pair_name, dense_name", [("pair48", "dense48"), ("pair_ico4", "dense_ico4")]
)
def test_sparse_group_projectors_match_dense(request, caplog, pair_name, dense_name):
    pair = request.getfixturevalue(pair_name)
    values, vectors = request.getfixturevalue(dense_name)
    spectral, log = solve_logged(caplog, pair, 20)
    assert "(sparse, k_ask=" in log
    for members in eigen.degeneracy_partition(values, eigen.DEFAULT_TOL_DEG):
        if members[-1] >= 20:
            break
        ours = spectral.eigenvectors[:, list(members)]
        ref = vectors[:, list(members)]
        gap = (ours @ ours.T - ref @ ref.T) * pair.mass[None, :]
        assert np.abs(gap).max() <= 1e-8


def test_sparse_rerun_bit_identical(pair48):
    a = eigen.solve(pair48, 13)
    b = eigen.solve(pair48, 13)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


_DIGEST_SCRIPT = """
import hashlib
from isospec import eigen
from isospec.assembly import assemble_base
from isospec.surface import make_torus
s = eigen.solve(assemble_base(make_torus(48, 48, 1.0, 1.0)), 13)
print(hashlib.sha256(s.eigenvalues.tobytes() + s.eigenvectors.tobytes()).hexdigest())
"""


def test_sparse_same_bytes_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_sparse_path_choice(pair_ico4, eigsh_calls):
    eigen.solve(assemble_base(make_torus(24, 24, 1.0, 1.0)), 8)  # small n
    eigen.solve(pair_ico4, 200)  # too many modes
    pair32 = assemble_base(make_torus(32, 32, 1.0, 1.0))
    eigen.solve(pair32, pair32.node_count)  # full solve
    assert eigsh_calls == []
    eigen.solve(pair32, 8)
    assert eigsh_calls


def test_solve_logs_path(pair16, pair48, caplog):
    _, log = solve_logged(caplog, pair16, 5)
    assert "solved 5 modes (dense)" in log
    _, log = solve_logged(caplog, pair48, 13)
    assert "solved 13 modes (sparse, k_ask=14)" in log
    # the ground eigenvalue lies below the shift: the inertia count sends
    # the solve to dense
    shifted = OperatorPair(
        surface=pair48.surface,
        stiffness=pair48.stiffness - 20.0 * sp.diags(pair48.mass),
        mass=pair48.mass,
    )
    spectral, log = solve_logged(caplog, shifted, 8)
    assert "solved 8 modes (dense, sparse fallback: inertia count 1 below the shift" in log
    assert spectral.eigenvalues[0] == pytest.approx(-20.0, rel=1e-10)


def test_fd_corrections_zero_field_sparse(pair48):
    # the centre and the +-h solves all take the sparse path on bit-equal
    # matrices, so the second difference cancels exactly
    spectral = eigen.solve(pair48, 30)
    pert = ConformalPerturbation(
        side=PerturbationSide.METRIC, f1=constant_field(pair48.surface, 0.0)
    )
    report = compute_corrections(spectral, conformal_operators(pair48, pert))
    fd1, fd2 = finite_difference_corrections(pair48, pert, report, 1e-3, n_modes=10)
    assert np.all(fd1 == 0.0)
    assert np.all(fd2 == 0.0)
