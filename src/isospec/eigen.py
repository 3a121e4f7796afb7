"""Deterministic solver for K psi = lambda M0 psi with degeneracy detection.

Two paths, chosen from the problem size alone:

* Dense LAPACK.  M0 is diagonal, so the generalized problem reduces
  exactly to the ordinary symmetric problem for S = M0^-1/2 K M0^-1/2;
  eigenvectors map back through M0^-1/2 and come out M0-orthonormal.
  Full solves, small problems and many modes take this path.
* Shift-invert Lanczos (ARPACK via scipy's eigsh) for a few modes of a
  large problem, from a fixed start vector and a fixed shift just below
  zero, followed by one Rayleigh-Ritz step on the returned basis.  The
  mode count grows until the degeneracy group at the cut is closed, and
  Sylvester's law of inertia, read off symmetric LDL^T factorizations of
  K - s M0, certifies that no eigenvalue lies below the shift and that
  exactly the returned modes lie below the gap after the cut.  Anything
  the path cannot certify falls back to dense.

Both paths are deterministic: identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ModeCountError, NumericalBreakdownError

logger = logging.getLogger(__name__)

DEFAULT_TOL_DEG = 1e-8

# Crossover between the dense and the sparse path, measured on 2 cores
# (OpenBLAS, 2 threads; table in CHANGES.md).  At 576 and 642 nodes both
# take 0.02-0.03 s for up to 20 modes, which the 16 ms lazy import of
# scipy.sparse.linalg would eat; at 1024 nodes sparse is 4x faster for
# 13 modes.  At 2304 and 2562 nodes one Lanczos run beats dense up to
# about 100 modes (n / 24), but closing a degeneracy group or recovering
# a missed copy of a multiple eigenvalue can take three runs, so sparse
# pays for sure only up to about n / 64 modes.
SPARSE_MIN_NODES = 1000
SPARSE_MAX_MODE_FRACTION = 1.0 / 64.0
# shift just below the spectrum of a Laplacian, relative to max K_ii / M_ii
SPARSE_SHIFT_REL = 1e-6


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenpairs of an operator pair with degeneracy grouping.

    Attributes
    ----------
    pair : OperatorPair
        The problem the spectrum belongs to.
    eigenvalues : np.ndarray
        Ascending, length n_modes.
    eigenvectors : np.ndarray
        node_count x n_modes; column n is the n-th eigenfunction,
        M0-orthonormal, sign-fixed (largest-magnitude entry positive).
    degeneracy_groups : tuple[tuple[int, ...], ...]
        Maximal runs of indices with relative gaps within tol_deg.
    tol_deg : float
        Relative degeneracy tolerance used for the grouping.
    basis_rotations : dict | None
        Per-group orthogonal rotations recorded by degenerate adaptation;
        None for a raw solve.
    """

    pair: object
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    degeneracy_groups: tuple
    tol_deg: float
    basis_rotations: dict | None = None

    @property
    def n_modes(self):
        return self.eigenvalues.shape[0]

    def group_ids(self):
        """Array mapping mode index to its degeneracy group id."""
        ids = np.empty(self.n_modes, dtype=np.int64)
        for gid, members in enumerate(self.degeneracy_groups):
            for m in members:
                ids[m] = gid
        return ids

    def export_csv(self, path):
        """One row per mode: index, eigenvalue, degeneracy group id."""
        ids = self.group_ids()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "eigenvalue", "group"])
            for n in range(self.n_modes):
                writer.writerow([n, repr(float(self.eigenvalues[n])), int(ids[n])])


def degeneracy_partition(values, tol_deg):
    """Maximal runs of ascending values chained by relative closeness.

    Consecutive values belong to the same run when
    |v[i+1] - v[i]| <= tol_deg * (1 + |v[i]|); runs are the transitive
    closure of that relation.
    """
    values = np.asarray(values, dtype=float)
    groups = []
    current = [0]
    for i in range(1, values.shape[0]):
        if abs(values[i] - values[i - 1]) <= tol_deg * (1.0 + abs(values[i - 1])):
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    if current:
        groups.append(tuple(current))
    return tuple(groups)


def complete_group_count(groups, n_modes):
    """Smallest count >= n_modes that does not split a degeneracy group."""
    for members in groups:
        if members[0] < n_modes <= members[-1]:
            return members[-1] + 1
    return n_modes


def _fix_signs(vectors):
    """Largest-magnitude entry of each column positive; first index on ties."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def solve(pair, n_modes, tol_deg=DEFAULT_TOL_DEG):
    """Lowest n_modes eigenpairs of K psi = lambda M0 psi.

    Deterministic: identical inputs give bit-identical outputs.  Few
    modes of a large problem come from shift-invert Lanczos, everything
    else from dense LAPACK (see the module docstring).  Verifies
    M0-orthonormality, per-mode residuals, and (for pairs whose stiffness
    annihilates constants) that the ground eigenvalue is zero.
    """
    n = pair.node_count
    if not 1 <= n_modes <= n:
        raise ModeCountError(f"n_modes={n_modes} outside [1, {n}]")
    if not 1e-12 <= tol_deg <= 1e-2:
        raise ValueError(f"tol_deg={tol_deg!r} outside [1e-12, 1e-2]")
    if np.any(pair.mass <= 0.0):
        raise NumericalBreakdownError("mass diagonal has nonpositive entries")

    if _sparse_pays(n, n_modes + 1):
        try:
            values, vectors, k_ask = _solve_sparse(pair, n_modes, tol_deg)
            path = f"sparse, k_ask={k_ask}"
        except _SparseFallback as exc:
            values, vectors = _solve_dense(pair, n_modes)
            path = f"dense, sparse fallback: {exc}"
    else:
        values, vectors = _solve_dense(pair, n_modes)
        path = "dense"
    vectors = _fix_signs(np.ascontiguousarray(vectors))

    _check_invariants(pair, values, vectors)
    groups = degeneracy_partition(values, tol_deg)
    logger.debug(
        "solved %d modes (%s), %d degeneracy groups, lambda range [%g, %g]",
        n_modes,
        path,
        len(groups),
        values[0],
        values[-1],
    )
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralData(
        pair=pair,
        eigenvalues=values,
        eigenvectors=vectors,
        degeneracy_groups=groups,
        tol_deg=tol_deg,
    )


def _sparse_pays(n, k_ask):
    return n >= SPARSE_MIN_NODES and k_ask <= SPARSE_MAX_MODE_FRACTION * n


def _solve_dense(pair, n_modes):
    n = pair.node_count
    inv_sqrt_m = 1.0 / np.sqrt(pair.mass)
    dense = pair.stiffness.toarray()
    s = inv_sqrt_m[:, None] * dense * inv_sqrt_m[None, :]
    s = 0.5 * (s + s.T)
    if n_modes < n:
        values, vectors = scipy.linalg.eigh(s, subset_by_index=[0, n_modes - 1])
    else:
        values, vectors = scipy.linalg.eigh(s)
    return values, inv_sqrt_m[:, None] * vectors


class _SparseFallback(Exception):
    """The sparse path cannot deliver a certified answer; use dense."""


def _solve_sparse(pair, n_modes, tol_deg):
    """Lowest n_modes pairs by shift-invert Lanczos plus Rayleigh-Ritz.

    Returns (values, vectors, k_ask), where k_ask is the number of modes
    the last Lanczos run computed: at least one more than n_modes, grown
    until the degeneracy group at the cut ends below the last of them.
    Raises _SparseFallback when ARPACK fails, the cut cannot be closed
    below the crossover, or an inertia count disagrees.
    """
    import scipy.sparse.linalg as spla

    n = pair.node_count
    stiffness = pair.stiffness.tocsc()
    mass = scipy.sparse.diags(pair.mass, format="csc")
    sigma = -SPARSE_SHIFT_REL * max(
        float(np.max(np.abs(stiffness.diagonal()) / pair.mass)), 1.0
    )
    lu, below = _ldlt_inertia(stiffness - sigma * mass)
    if below != 0:
        raise _SparseFallback(f"inertia count {below} below the shift {sigma:.3e}")
    shift_invert = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)

    k_ask = n_modes + 1
    while True:
        try:
            _, basis = spla.eigsh(
                stiffness, k_ask, M=mass, sigma=sigma, which="LM",
                v0=start, tol=0, OPinv=shift_invert,
            )
        except spla.ArpackError as exc:
            raise _SparseFallback(f"ARPACK failed at k_ask={k_ask}: {exc}") from exc
        # Rayleigh-Ritz on the Lanczos basis gives M0-orthonormal Ritz
        # vectors, also inside degenerate groups.  The products go through
        # einsum, not BLAS: OpenBLAS sums these long inner products in an
        # order that depends on its thread count.
        a = np.einsum("ia,ib->ab", basis, stiffness @ basis)
        b = np.einsum("ia,ib->ab", basis, pair.mass[:, None] * basis)
        values, coeffs = scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T))
        stop = complete_group_count(degeneracy_partition(values, tol_deg), n_modes)
        if stop < k_ask:
            # Lanczos from one start vector can miss a copy of a multiple
            # eigenvalue; the gap after the cut's group must have exactly
            # `stop` eigenvalues below it
            mu = 0.5 * (values[stop - 1] + values[stop])
            _, below = _ldlt_inertia(stiffness - mu * mass)
            if below == stop:
                vectors = np.einsum("ia,ab->ib", basis, coeffs[:, :n_modes])
                return values[:n_modes], vectors, k_ask
            reason = f"inertia count {below} below {mu:.6e}, found {stop}"
        else:
            reason = f"cut at {n_modes} not closed"
        k_ask += k_ask - n_modes + 1
        if not _sparse_pays(n, k_ask):
            raise _SparseFallback(f"{reason} within the crossover ({k_ask} modes)")


def _ldlt_inertia(shifted):
    """(LU, count of negative pivots) of a symmetric sparse matrix.

    Diagonal pivoting with a symmetric fill-reducing order makes SuperLU's
    LU an LDL^T factorization, U = D L^T, so by Sylvester's law of inertia
    the negative pivots count the negative eigenvalues of the matrix.
    """
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(
            shifted.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular pivot
        raise _SparseFallback(f"shifted factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise _SparseFallback("shifted factorization pivoted off the diagonal")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _check_invariants(pair, values, vectors):
    gram = vectors.T @ (pair.mass[:, None] * vectors)
    ortho_err = np.abs(gram - np.eye(values.shape[0])).max()
    if ortho_err > 1e-10:
        raise NumericalBreakdownError(f"M0-orthonormality violated: {ortho_err:.3e}")
    residual = pair.stiffness @ vectors - pair.mass[:, None] * vectors * values[None, :]
    res_norms = np.linalg.norm(residual, axis=0)
    # backward-error floor: || K psi - lam M psi || grows with the problem
    # scale sqrt(m_max) * lam_max even for a perfect solver
    floor = (
        100.0
        * np.finfo(float).eps
        * np.sqrt(pair.mass.max())
        * (1.0 + float(np.abs(values).max()))
    )
    bounds = 1e-9 * (1.0 + np.abs(values)) + floor
    if np.any(res_norms > bounds):
        worst = int(np.argmax(res_norms - bounds))
        raise NumericalBreakdownError(
            f"residual {res_norms[worst]:.3e} exceeds bound for mode {worst}"
        )
    if np.any(np.diff(values) < 0.0):
        raise NumericalBreakdownError("eigenvalues not ascending")
    # ground mode is the constant only when constants are in the kernel
    kernel_residual = np.abs(pair.stiffness @ np.ones(pair.node_count)).max()
    k_scale = max(np.abs(pair.stiffness).max(), 1.0)
    if kernel_residual <= 1e-10 * k_scale and values.shape[0] > 1:
        if abs(values[0]) > 1e-10 * max(values[1], 1.0):
            raise NumericalBreakdownError(
                f"ground eigenvalue {values[0]!r} not zero"
            )
