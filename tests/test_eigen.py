import csv
import logging
import os
import subprocess
import sys
import tracemalloc

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
    # a NaN gap splits; no values, no groups
    part = eigen.degeneracy_partition(np.array([1.0, 1.0, np.nan, np.nan]), 1e-9)
    assert part == ((0, 1), (2,), (3,))
    assert eigen.degeneracy_partition(np.array([]), 1e-9) == ()


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


def test_nan_mass_rejected():
    pair = synthetic_pair(np.eye(3), np.array([1.0, np.nan, 1.0]))
    with pytest.raises(NumericalBreakdownError, match="mass diagonal has nonpositive"):
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
    # widely scaled K keeps invariants intact; a power of two scales every
    # entry exactly, so LAPACK's arithmetic scales exactly too
    surface = make_torus(8, 8, 1.0, 1.0)
    pair = assemble_base(surface)
    scaled = OperatorPair(
        surface=surface, stiffness=pair.stiffness * 2.0**20, mass=pair.mass
    )
    spectral = eigen.solve(scaled, 6)
    base = eigen.solve(pair, 6)
    assert np.array_equal(spectral.eigenvalues, 2.0**20 * base.eigenvalues)


# ------------------------------------------------------- sliced path, one slice


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


def torus48_symbol():
    """The whole spectrum of the 48 x 48 unit torus, from the 5-point symbol."""
    h = 1.0 / 48
    s = np.sin(np.pi * h * np.arange(48)) ** 2
    return np.sort(((4.0 / h**2) * (s[:, None] + s[None, :])).ravel())


def scaled_gap(values, reference):
    return np.max(np.abs(values - reference) / (1.0 + np.abs(reference)))


@pytest.mark.parametrize("k", [8, 11, 13, 20])
def test_sparse_torus48_matches_dense_and_symbol(pair48, dense48, caplog, k):
    spectral, log = solve_logged(caplog, pair48, k)
    assert "(sliced)" in log
    lam = spectral.eigenvalues
    assert scaled_gap(lam, dense48[0][:k]) <= 1e-10
    assert scaled_gap(lam, torus48_symbol()[:k]) <= 1e-10


@pytest.mark.parametrize("k", [8, 10, 20])
def test_sparse_ico4_matches_dense(pair_ico4, dense_ico4, caplog, k):
    spectral, log = solve_logged(caplog, pair_ico4, k)
    assert "(sliced)" in log
    assert scaled_gap(spectral.eigenvalues, dense_ico4[0][:k]) <= 1e-10


def test_sliced_irregular_mesh_matches_dense(caplog):
    # ico4 with its vertices jittered by 0.3 of the mean edge length: obtuse
    # angles give K 193 positive off-diagonal pairs, and no level is degenerate
    vertices, faces = icosphere_arrays(4)
    edges = vertices[faces] - vertices[np.roll(faces, 1, axis=1)]
    mean_edge = np.linalg.norm(edges, axis=2).mean()
    jitter = np.random.default_rng(0).uniform(-1.0, 1.0, vertices.shape)
    pair = assemble_base(mesh_from_arrays(vertices + 0.3 * mean_edge * jitter, faces))
    assert np.count_nonzero(sp.triu(pair.stiffness, k=1).data > 0.0) == 193
    spectral, log = solve_logged(caplog, pair, 60)
    assert "(sliced)" in log
    assert scaled_gap(spectral.eigenvalues, dense_reference(pair, 60)[0]) <= 1e-12


@pytest.mark.parametrize(
    "pair_name, dense_name", [("pair48", "dense48"), ("pair_ico4", "dense_ico4")]
)
def test_sparse_group_projectors_match_dense(request, caplog, pair_name, dense_name):
    pair = request.getfixturevalue(pair_name)
    values, vectors = request.getfixturevalue(dense_name)
    spectral, log = solve_logged(caplog, pair, 20)
    assert "(sliced)" in log
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


def test_solve_window_closes_the_cut_group():
    # 6 modes of the 12 x 12 torus end inside the level of modes 5-8, which
    # the window takes in whole; eigen.solve keeps its first 6 modes, bit
    # for bit, and regroups them
    pair = assemble_base(make_torus(12, 12, 1.0, 1.0))
    window = eigen.solve_window(pair, 6)
    head = eigen.solve(pair, 6)
    assert window.closed and not head.closed
    assert window.n_modes == 9
    assert window.degeneracy_groups == ((0,), (1, 2, 3, 4), (5, 6, 7, 8))
    assert head.degeneracy_groups == ((0,), (1, 2, 3, 4), (5,))
    assert np.array_equal(head.eigenvalues, window.eigenvalues[:6])
    assert np.array_equal(head.eigenvectors, window.eigenvectors[:, :6])
    assert eigen.solve_window(pair, 5).n_modes == 5
    full = eigen.solve_window(pair, pair.node_count)
    assert full.closed and full.n_modes == pair.node_count
    for bad in (0, pair.node_count + 1):
        with pytest.raises(ModeCountError):
            eigen.solve_window(pair, bad)


def test_solve_window_is_one_sparse_solve(pair48, solver_counts, caplog):
    # 10 modes of the 48 x 48 torus end inside the level of modes 9-12:
    # one slice, one Lanczos run, closes that level and certifies it with
    # its two inertia counts; that run is the window
    caplog.set_level(logging.DEBUG, logger="isospec.eigen")
    window = eigen.solve_window(pair48, 10)
    assert solver_counts["lanczos"] == 1 and solver_counts["inertia"] == 2
    assert (
        "solved 13 modes (sliced), 10 requested, 13 returned, "
        "1 Lanczos runs, 2 inertia factorizations, 1 slices" in caplog.text
    )
    assert window.closed and window.n_modes == 13
    # the closed-form symbol, not LAPACK: at one OpenBLAS thread LAPACK's
    # ground value is -2.09e-12
    assert scaled_gap(window.eigenvalues, torus48_symbol()[:13]) <= 1e-12
    again = eigen.solve_window(pair48, 10)
    assert np.array_equal(window.eigenvalues, again.eigenvalues)
    assert np.array_equal(window.eigenvectors, again.eigenvectors)
    # eigen.solve takes the same run and keeps its first 10 modes
    head = eigen.solve(pair48, 10)
    assert np.array_equal(head.eigenvalues, window.eigenvalues[:10])
    assert np.array_equal(head.eigenvectors, window.eigenvectors[:, :10])


@pytest.mark.parametrize(
    "size, n_modes, window", [(32, 10, True), (48, 30, False)], ids=["torus32-window", "torus48-30"]
)
def test_first_slice_closes_the_cut_in_one_run(solver_counts, caplog, size, n_modes, window):
    # the 10-mode window of the 32 x 32 torus (1,024 nodes) and 30 modes of
    # the 48 x 48 torus each come from one certified run, not from dense
    pair = assemble_base(make_torus(size, size, 1.0, 1.0))
    caplog.set_level(logging.DEBUG, logger="isospec.eigen")
    spectral = (eigen.solve_window if window else eigen.solve)(pair, n_modes)
    assert "(sliced)" in caplog.text and "1 Lanczos runs" in caplog.text
    assert solver_counts["lanczos"] == 1 and solver_counts["inertia"] == 2
    values, _ = dense_reference(pair, spectral.n_modes)
    assert scaled_gap(spectral.eigenvalues, values) <= 1e-10


_DIGEST_SCRIPT = """
import hashlib
from isospec import eigen
from isospec.assembly import assemble_base
from isospec.surface import make_torus
s = eigen.solve(assemble_base(make_torus(48, 48, 1.0, 1.0)), 13)
print(hashlib.sha256(s.eigenvalues.tobytes() + s.eigenvectors.tobytes()).hexdigest())
"""


def thread_digests(script, timeout=120):
    """The digest the script prints, equal at 1 and 2 OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=timeout, check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
    return digests[0]


def test_sparse_same_bytes_at_one_and_two_blas_threads():
    assert thread_digests(_DIGEST_SCRIPT) is not None


def test_sparse_path_choice(pair_ico4, eigsh_calls, caplog):
    eigen.solve(assemble_base(make_torus(24, 24, 1.0, 1.0)), 8)  # small n
    pair32 = assemble_base(make_torus(32, 32, 1.0, 1.0))
    eigen.solve(pair32, pair32.node_count)  # full solve
    eigen.solve(pair32, 200)  # past the sliced crossover, n / 6 modes
    assert eigsh_calls == []
    eigen.solve(pair32, 8)
    assert eigsh_calls
    # 200 modes of ico4: several slices, not the dense matrix
    eigsh_calls.clear()
    _, log = solve_logged(caplog, pair_ico4, 200)
    assert "(sliced)" in log
    assert len(eigsh_calls) >= 2


def test_solve_logs_path(pair16, pair48, caplog):
    # the dense path asks LAPACK for 8 modes past the cut
    _, log = solve_logged(caplog, pair16, 5)
    assert "solved 13 modes (dense), 5 requested, 5 returned" in log
    _, log = solve_logged(caplog, pair48, 13)
    assert "solved 13 modes (sliced)" in log
    # the ground eigenvalue lies below the shift: the inertia count sends
    # the solve to dense
    shifted = OperatorPair(
        surface=pair48.surface,
        stiffness=pair48.stiffness - 20.0 * sp.diags(pair48.mass),
        mass=pair48.mass,
    )
    spectral, log = solve_logged(caplog, shifted, 8)
    assert "solved 16 modes (dense, sliced fallback: inertia count 1 below the shift" in log
    assert spectral.eigenvalues[0] == pytest.approx(-20.0, rel=1e-10)


class _OffDiagonalPivots:
    """A factorization whose row order differs from its column order."""

    def __init__(self, lu):
        self.perm_c = lu.perm_c
        self.perm_r = lu.perm_c[::-1]


def _singular(real):
    def splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    return splu


def _off_diagonal(real):
    return lambda *args, **kwargs: _OffDiagonalPivots(real(*args, **kwargs))


def _arpack_error(real):
    def eigsh(*args, **kwargs):
        raise spla.ArpackError(-9999)

    return eigsh


@pytest.mark.parametrize(
    "name, fault, reason",
    [
        ("splu", _singular, "shifted factorization failed: Factor is exactly singular"),
        ("splu", _off_diagonal, "shifted factorization pivoted off the diagonal"),
        ("eigsh", _arpack_error, "ARPACK failed at k_ask=14: ARPACK error -9999"),
    ],
    ids=["singular", "off-diagonal-pivots", "arpack-error"],
)
def test_sparse_kernel_faults_fall_back_to_dense(
    pair48, dense48, monkeypatch, caplog, name, fault, reason
):
    # faults injected where the solver calls SuperLU and ARPACK: each
    # sends the solve to dense, with its reason in the log
    monkeypatch.setattr(spla, name, fault(getattr(spla, name)))
    spectral, log = solve_logged(caplog, pair48, 8)
    assert f"solved 16 modes (dense, sliced fallback: {reason}" in log
    assert scaled_gap(spectral.eigenvalues, dense48[0][:8]) <= 1e-10


def test_fd_corrections_zero_field_sparse(pair48):
    # the centre and the +-h solves all take one slice on bit-equal
    # matrices, so the second difference cancels exactly
    spectral = eigen.solve_window(pair48, 10)
    pert = ConformalPerturbation(
        side=PerturbationSide.METRIC, f1=constant_field(pair48.surface, 0.0)
    )
    report = compute_corrections(spectral, conformal_operators(pair48, pert))
    fd1, fd2 = finite_difference_corrections(pair48, pert, report, 1e-3, n_modes=10)
    assert np.all(fd1 == 0.0)
    assert np.all(fd2 == 0.0)


# ----------------------------------------------------- sliced path, many slices


@pytest.fixture(scope="module")
def many48(pair48):
    return dense_reference(pair48, 210)


@pytest.fixture(scope="module")
def many_ico4(pair_ico4):
    return dense_reference(pair_ico4, 210)


def rayleigh_quotients(pair, vectors):
    """psi^T K psi / psi^T M0 psi for each column: eigenvalues accurate to
    the square of the vectors' error, where LAPACK's own values carry an
    error of eps times the largest eigenvalue (1.8e-12 (1 + lambda) at
    lambda = 1235 on the 48 x 48 torus)."""
    num = np.einsum("ia,ia->a", vectors, pair.stiffness @ vectors)
    return num / np.einsum("ia,ia,i->a", vectors, vectors, pair.mass)


@pytest.mark.parametrize("k", [50, 100, 120, 200])
@pytest.mark.parametrize(
    "pair_name, dense_name", [("pair48", "many48"), ("pair_ico4", "many_ico4")]
)
def test_sliced_matches_dense(request, caplog, pair_name, dense_name, k):
    pair = request.getfixturevalue(pair_name)
    values, vectors = request.getfixturevalue(dense_name)
    spectral, log = solve_logged(caplog, pair, k)
    assert "(sliced)" in log
    if pair_name == "pair_ico4" and k == 120:
        # the second run finds nothing between its highest value and its
        # shift, so the shift is the boundary, certified by the inertia
        # count already taken there
        assert "2 Lanczos runs, 3 inertia factorizations, 2 slices" in log
    reference = rayleigh_quotients(pair, vectors[:, :k])
    assert scaled_gap(spectral.eigenvalues, reference) <= 1e-12
    groups = eigen.degeneracy_partition(values[:k], eigen.DEFAULT_TOL_DEG)
    assert spectral.degeneracy_groups == groups
    for members in groups[:-1]:  # the last may continue past mode k - 1
        ours = spectral.eigenvectors[:, list(members)]
        ref = vectors[:, list(members)]
        # the part of our group outside the reference's span: its largest
        # M0-norm is the sine of the largest angle between the two spans,
        # the distance of their M0-orthogonal projectors
        outside = ours - ref @ (ref.T @ (pair.mass[:, None] * ours))
        sine = np.sqrt(np.max(np.einsum("ia,ia,i->a", outside, outside, pair.mass)))
        assert sine <= 1e-8


def test_lanczos_restarts_are_bounded(pair_ico4, many_ico4, monkeypatch):
    # the third slice of 124 modes runs about a shift between two
    # near-degenerate clusters, where ARPACK does not converge; with
    # scipy's default of 10 n restarts it ran for minutes before falling back
    real = spla.eigsh

    def bounded(*args, **kwargs):
        assert kwargs.get("maxiter", np.inf) <= 1000
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", bounded)
    spectral = eigen.solve(pair_ico4, 124)
    reference = rayleigh_quotients(pair_ico4, many_ico4[1][:, :124])
    assert scaled_gap(spectral.eigenvalues, reference) <= 1e-12


def test_slice_boundary_next_to_an_eightfold_level(pair48, monkeypatch, caplog):
    # modes 13-20 of the 48 x 48 torus form the 8-fold level of the
    # frequencies (+-2, +-1) and (+-1, +-2).  Slices of 16 modes put the
    # first boundary in the gap just below it, so the second slice must
    # find all eight copies, and no copy may come back twice.
    monkeypatch.setattr(eigen, "SPARSE_SLICE_MODES", 16)
    slices = []
    real = eigen._slice

    def recorded(*args):
        result = real(*args)
        slices.append(result)
        return result

    monkeypatch.setattr(eigen, "_slice", recorded)
    spectral, log = solve_logged(caplog, pair48, 30)
    assert "(sliced)" in log
    lam = spectral.eigenvalues
    assert lam[12] < slices[0][2] < lam[13]
    assert slices[0][0].shape[0] == 13
    assert (13, 14, 15, 16, 17, 18, 19, 20) in spectral.degeneracy_groups
    assert sum(len(values) for values, *_ in slices) >= 30
    assert scaled_gap(lam, torus48_symbol()[:30]) <= 1e-12


_SLICED_DIGEST_SCRIPT = """
import hashlib
from isospec import eigen
from isospec.assembly import assemble_base
from isospec.surface import icosphere_arrays, mesh_from_arrays
s = eigen.solve(assemble_base(mesh_from_arrays(*icosphere_arrays(4))), 200)
print(hashlib.sha256(s.eigenvalues.tobytes() + s.eigenvectors.tobytes()).hexdigest())
"""


def test_sliced_same_bytes_at_one_and_two_blas_threads():
    assert thread_digests(_SLICED_DIGEST_SCRIPT, timeout=300) is not None


def test_sliced_solve_holds_no_dense_matrix(pair_ico4):
    # 200 modes of icosphere 4 (2562 nodes) traced 1.13 x 8 n^2 bytes on
    # the dense path; sliced, 0.34 x 8 n^2, most of it ARPACK's basis
    n = pair_ico4.node_count
    assert traced_peak(eigen.solve, pair_ico4, 200) <= 0.5 * 8 * n * n


# ----------------------------------------------------------------- dense path


def symmetrized_copy_solve(pair, n_modes):
    """The dense solve on an explicitly symmetrized copy of S = M0^-1/2 K M0^-1/2."""
    inv_sqrt_m = 1.0 / np.sqrt(pair.mass)
    s = inv_sqrt_m[:, None] * pair.stiffness.toarray() * inv_sqrt_m[None, :]
    s = 0.5 * (s + s.T)
    subset = [0, n_modes - 1] if n_modes < pair.node_count else None
    values, vectors = scipy.linalg.eigh(s, subset_by_index=subset)
    return values, inv_sqrt_m[:, None] * vectors


def off_symmetric_pair(surface, seed):
    """The surface's pair with uneven mass and K off symmetry at rounding level."""
    pair = assemble_base(surface)
    rng = np.random.default_rng(seed)
    k = pair.stiffness.toarray()
    k += 1e-14 * np.abs(k).max() * rng.standard_normal(k.shape) * (k != 0.0)
    return synthetic_pair(k, pair.mass * rng.uniform(0.5, 2.0, pair.node_count))


@pytest.mark.parametrize("surface", ["torus5x7", "ico1"])
@pytest.mark.parametrize("block", ["below", "equal", "above"])
@pytest.mark.parametrize("full", [False, True], ids=["subset", "full"])
def test_dense_solve_matches_symmetrized_copy_bitwise(monkeypatch, surface, block, full):
    # 35 and 42 nodes against a block width above, equal to and below n;
    # 35 = 4 * 8 + 3 leaves a short last block
    if surface == "torus5x7":
        pair = off_symmetric_pair(make_torus(5, 7, 1.3, 0.7), 0)
    else:
        pair = off_symmetric_pair(mesh_from_arrays(*icosphere_arrays(1)), 1)
    n = pair.node_count
    width = {"below": n + 9, "equal": n, "above": 8}[block]
    monkeypatch.setattr(eigen, "DENSE_BLOCK", width)
    k = n if full else 9
    values, vectors = eigen._solve_dense(pair, k)
    expected_values, expected_vectors = symmetrized_copy_solve(pair, k)
    assert vectors.shape == (n, k)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(vectors, expected_vectors)


def traced_peak(call, *args):
    """Peak bytes numpy and Python allocate while call(*args) runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_solve_holds_one_matrix():
    # the symmetrized copy held the dense K, the scaled product and its
    # transpose sum (3 n x n arrays), then f2py's Fortran copy; adding the
    # transpose of a whole 256-column strip made numpy copy that strip
    # (n x 256 doubles, 0.126 x 8 n^2 here), and eigh's finiteness check
    # a boolean n x n mask of the same size
    pair = assemble_base(make_torus(45, 45, 1.0, 1.0))
    n, k = pair.node_count, 10
    bound = 1.06 * 8 * n * n + 8 * 8 * n * k
    assert traced_peak(eigen._solve_dense, pair, k) <= bound
    assert traced_peak(symmetrized_copy_solve, pair, k) > bound


def test_sliced_solve_holds_little_besides_its_window():
    # 200 modes of ico4, its vertices relabelled by a seeded permutation as
    # the benchmark does: the join, the sign fix and the checks held up to
    # four more copies of the window (4.10 x); now the peak is ARPACK's
    # basis in a later slice, beside the accepted vectors and one factor
    vertices, faces = icosphere_arrays(4)
    order = np.random.default_rng(1).permutation(vertices.shape[0])
    relabel = np.empty_like(order)
    relabel[order] = np.arange(order.shape[0])
    pair = assemble_base(mesh_from_arrays(vertices[order], relabel[faces]))
    window = 8 * pair.node_count * 200
    assert traced_peak(eigen.solve, pair, 200) <= 3.5 * window


def test_dense_solve_refuses_non_finite_entries():
    pair = off_symmetric_pair(make_torus(5, 7, 1.3, 0.7), 0)
    stiffness = pair.stiffness.tolil()
    stiffness[20, 3] = np.inf
    bad = OperatorPair(surface=None, stiffness=stiffness.tocsr(), mass=pair.mass)
    with pytest.raises(NumericalBreakdownError, match="non-finite"):
        eigen._solve_dense(bad, 9)


def test_full_solve_holds_one_matrix_besides_its_output():
    pair = assemble_base(make_torus(32, 32, 1.0, 1.0))
    n = pair.node_count
    assert traced_peak(eigen.solve, pair, n) <= 2.5 * 8 * n * n


@pytest.fixture()
def dense_asks(monkeypatch):
    """The mode count of each eigen._solve_dense call while a test runs."""
    asks = []
    real = eigen._solve_dense

    def counted(pair, n_modes):
        asks.append(n_modes)
        return real(pair, n_modes)

    monkeypatch.setattr(eigen, "_solve_dense", counted)
    return asks


@pytest.mark.parametrize("n_modes", [8, 10])
@pytest.mark.parametrize("surface", ["torus24", "ico3"])
def test_dense_window_asks_lapack_once(dense_asks, surface, n_modes):
    # the first ask runs 8 modes past the cut, so the cut's group closes
    # inside it
    if surface == "torus24":
        pair = assemble_base(make_torus(24, 24, 1.0, 1.0))
    else:
        pair = assemble_base(mesh_from_arrays(*icosphere_arrays(3)))
    window = eigen.solve_window(pair, n_modes)
    assert dense_asks == [n_modes + 8]
    assert window.closed and window.n_modes < n_modes + 8


def test_dense_window_of_one_chained_group_asks_every_mode_once(dense_asks):
    # on the 8 x 8 torus of period 1e5 every eigenvalue lies within tol_deg
    # of the next, so the cut's group runs past any ask short of all modes
    pair = assemble_base(make_torus(8, 8, 1e5, 1e5))
    window = eigen.solve_window(pair, 10)
    assert dense_asks == [18, 64]
    assert window.closed and window.n_modes == 64
    assert window.degeneracy_groups == (tuple(range(64)),)


def test_dense_budget_by_arithmetic():
    # 128 x 128 torus with 300 modes: 2.2 GB; ico6 (40,962 nodes): 13.4 GB
    eigen._check_dense_budget(128 * 128, 300)
    with pytest.raises(NumericalBreakdownError, match="above the dense budget"):
        eigen._check_dense_budget(40962, 10)


def test_dense_budget_refuses_before_allocating(pair16, monkeypatch):
    # a dense solve of k modes asks LAPACK for k + 8 while k < 32
    n = pair16.node_count
    budget = 8 * n * (n + 20)
    monkeypatch.setattr(eigen, "DENSE_BUDGET_BYTES", budget)
    assert eigen.solve(pair16, 12).n_modes == 12
    message = f"needs {8 * n * (n + 21)} bytes, above the dense budget of {budget} bytes"
    with pytest.raises(NumericalBreakdownError, match=message):
        eigen.solve(pair16, 13)
    # the 30-fold level of modes 113-142 runs to the end of the first ask
    # of 114 + 28 modes, so the window asks for every mode
    budget = 8 * n * (n + 142)
    monkeypatch.setattr(eigen, "DENSE_BUDGET_BYTES", budget)
    message = f"needs {8 * n * 2 * n} bytes, above the dense budget of {budget} bytes"
    with pytest.raises(NumericalBreakdownError, match=message):
        eigen.solve_window(pair16, 114)


def test_dense_budget_covers_the_sparse_fallback(pair48, monkeypatch):
    # the ground eigenvalue lies below the shift, so slicing falls
    # back to dense
    shifted = OperatorPair(
        surface=pair48.surface,
        stiffness=pair48.stiffness - 20.0 * sp.diags(pair48.mass),
        mass=pair48.mass,
    )
    monkeypatch.setattr(eigen, "DENSE_BUDGET_BYTES", 2**20)
    with pytest.raises(NumericalBreakdownError, match="dense budget"):
        eigen.solve(shifted, 8)
