"""Deterministic solver for K psi = lambda M0 psi with degeneracy detection.

solve_window returns the lowest modes through the end of the degeneracy
group that the requested count cuts, and solve that window's head.  Two
paths, chosen from the problem size and the mode count alone:

* Dense LAPACK.  M0 is diagonal, so the generalized problem reduces
  exactly to the ordinary symmetric problem for S = M0^-1/2 K M0^-1/2;
  eigenvectors map back through M0^-1/2 and come out M0-orthonormal.
  Small problems, full solves and mode counts past the sliced crossover
  take this path.  It asks LAPACK for a margin of modes past the cut,
  and for every mode if the cut's group outruns it.  It holds one n x n
  working array, scaled and symmetrized in place and then overwritten by
  LAPACK, besides its n x k eigenvectors, and refuses solves whose
  8 n (n + k) bytes exceed DENSE_BUDGET_BYTES.
* Spectrum slicing for the lowest modes of a large problem: [0, lambda_k]
  is covered by slices, one shift-invert Lanczos run each (ARPACK via
  scipy's eigsh, from a fixed start vector) followed by one Rayleigh-Ritz
  step on the returned basis.  The first slice runs about a fixed shift
  just below zero, each later one about a shift above the last slice's
  boundary.  Boundaries lie in gaps between degeneracy groups, and
  Sylvester's law of inertia, read off symmetric LDL^T factorizations of
  K - s M0, certifies them: no eigenvalue lies below the first shift, and
  the counts at the two ends of a slice differ by exactly the number of
  eigenvalues it accepts.  A later slice's basis is M0-orthogonalized
  against the eigenvectors already accepted.  A few modes take one slice;
  its certified run closes the degeneracy group at the cut, and the
  certified slices are the window.  No n x n array is formed.
  At its peak, inside a later slice's Lanczos run, a solve holds the
  eigenvectors accepted so far, one factorization, and ARPACK's basis
  with the Ritz vectors it returns: 13.3 MB of arrays for the 4.1 MB
  window of 200 modes on 2562 nodes.  The slices are joined once, into
  the modes returned; the sign fix works in place and the checks
  DENSE_BLOCK columns at a time, so they stay below that peak.

Whatever slicing cannot certify falls back to dense.  Both paths are
deterministic: identical inputs give bit-identical outputs.

Every sparse factorization and Lanczos run, here and in perturb's
per-group solves, goes through one seam, _Kernels, which owns the SuperLU
options and the counts.  A fill-reducing order shared by the factorizations
of one stiffness matrix, and a BLAS thread pin, belong there too.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ModeCountError, NumericalBreakdownError

logger = logging.getLogger(__name__)

DEFAULT_TOL_DEG = 1e-8

# Crossover between the dense path and slicing, measured on 2 cores
# (OpenBLAS, 2 threads; table in CHANGES.md).  At 576 and 642 nodes both
# take 0.02-0.05 s for windows of up to 30 modes, which the 10-16 ms lazy
# import of scipy.sparse.linalg would eat; at 1024 nodes slicing is 2-5x
# faster up to 20 modes.
SPARSE_MIN_NODES = 1000
# A slice is sized once, to about SPARSE_SLICE_MODES accepted modes: on
# 2562 nodes a run costs 6-8 ms per mode from 80 to 140 modes.  Slicing
# holds no n x n array and at most half the memory of dense; in time it is
# 1.1-1.7x dense at n / 12 modes and 1.5-2.1x at n / 8 on 2304 and 2562
# nodes, and on 4900 nodes 3x faster at n / 25, 1.7x faster at n / 12 and
# 1.5x slower at n / 6 (table in CHANGES.md).  So it stops at n / 8.
SPARSE_SLICE_MODES = 120
SPARSE_MAX_SLICED_FRACTION = 1.0 / 8.0
# shift just below the spectrum of a Laplacian, relative to max K_ii / M_ii
SPARSE_SHIFT_REL = 1e-6
# Implicit restarts per Lanczos run.  Converging runs take 5-20 (every run
# of the 48 x 48 torus and icosphere 4 up to 300 modes, the 100 x 100 and
# 150 x 150 tori, icosphere 5); scipy's default, 10 n, let one run about a
# shift between two near-degenerate clusters of icosphere 4 restart 25,621
# times (435 s on 2 cores, one OpenBLAS thread) before the solve fell back
# to dense; with this bound it falls back in 4.6 s.
ARPACK_MAX_RESTARTS = 100
# A dense solve of k modes on n nodes holds 8 n (n + k) bytes; above this
# budget it is refused with a numerical error rather than left to fail
# allocating, or to the out-of-memory killer.
DENSE_BUDGET_BYTES = 4 * 2**30
# Columns per block when the dense path symmetrizes S, and when a solve
# checks its invariants, which then holds four n x 64 temporaries beside
# the eigenvectors.  At 256 the check of a 200-mode sliced solve on 2562
# nodes held four n x 200 ones, the solve's peak.  Symmetrizing, and
# checking windows of up to 200 modes, take as long at 64; checking a
# full 2304-node solve takes 0.5-0.8 s against 0.5-0.65 s (2 cores, 2
# OpenBLAS threads).
DENSE_BLOCK = 64


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
    closed : bool
        Set by solve_window: no degeneracy group is cut at the end.  Any
        other spectrum short of every mode may end inside a group.
    """

    pair: object
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    degeneracy_groups: tuple
    tol_deg: float
    basis_rotations: dict | None = None
    closed: bool = False

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
    runs = _runs(values, tol_deg * (1.0 + np.abs(values[:-1])))
    return tuple(tuple(run.tolist()) for run in runs)


def _runs(values, tol):
    """Index arrays of the maximal runs of consecutive near-equal values.

    A run ends wherever the gap |v[i] - v[i-1]| is not within tol, one
    bound or one per gap, so a NaN gap ends it too; no values, no runs.
    """
    cuts = np.flatnonzero(~(np.abs(np.diff(values)) <= tol)) + 1
    return np.split(np.arange(len(values)), cuts) if len(values) else []


def complete_group_count(groups, n_modes):
    """Smallest count >= n_modes that does not split a degeneracy group."""
    for members in groups:
        if members[0] < n_modes <= members[-1]:
            return members[-1] + 1
    return n_modes


def _fix_signs(vectors):
    """Make the largest-magnitude entry of each column positive, in place; first index on ties.

    Returns the sign, 1.0 or -1.0, that each column was multiplied by.
    """
    # argmax along contiguous rows of the transposed magnitudes: along
    # axis 0 numpy would copy the magnitudes once more
    idx = np.argmax(np.abs(vectors.T, order="C"), axis=1)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return signs


def solve(pair, n_modes, tol_deg=DEFAULT_TOL_DEG):
    """Lowest n_modes eigenpairs of K psi = lambda M0 psi: solve_window's head.

    The window's first n_modes values and vectors, as views, regrouped;
    the last group may be cut, so the result is not marked closed.
    """
    window = solve_window(pair, n_modes, tol_deg)
    values = window.eigenvalues[:n_modes]
    return replace(
        window,
        eigenvalues=values,
        eigenvectors=window.eigenvectors[:, :n_modes],
        degeneracy_groups=degeneracy_partition(values, tol_deg),
        closed=False,
    )


def solve_window(pair, n_modes, tol_deg=DEFAULT_TOL_DEG):
    """The lowest modes through the end of the degeneracy group of mode n_modes - 1.

    Deterministic, and marked closed; the path follows from n and n_modes
    (see the module docstring).  Verifies M0-orthonormality, per-mode
    residuals, and (for pairs whose stiffness annihilates constants) that
    the ground eigenvalue is zero.
    """
    n = pair.node_count
    if not 1 <= n_modes <= n:
        raise ModeCountError(f"n_modes={n_modes} outside [1, {n}]")
    if not 1e-12 <= tol_deg <= 1e-2:
        raise ValueError(f"tol_deg={tol_deg!r} outside [1e-12, 1e-2]")
    if not np.all(pair.mass > 0.0):
        raise NumericalBreakdownError("mass diagonal has nonpositive entries")

    counts = Counter()
    solved = None
    slices = 0
    if n >= SPARSE_MIN_NODES and n_modes + 1 <= SPARSE_MAX_SLICED_FRACTION * n:
        kernels = _Kernels(pair)
        counts = kernels.counts
        try:
            solved, vectors, slices = _solve_sliced(kernels, n_modes, tol_deg)
            stop, path = solved.shape[0], "sliced"
        except _SparseFallback as exc:
            path = f"dense, sliced fallback: {exc}"
    else:
        path = "dense"
    if solved is None:
        # LAPACK sees a group close only below the last mode asked: past the
        # cut, 8 modes hold a torus's largest symmetric level ({+-m, +-n} and
        # the swap), and a quarter more its accidental 12- to 46-fold ones
        for k in (min(n, n_modes + max(8, n_modes // 4)), n):
            solved, vectors = _solve_dense(pair, k)
            stop = complete_group_count(degeneracy_partition(solved, tol_deg), n_modes)
            if stop < k or k == n:
                break
    values = solved[:stop]
    # a dense solve's Fortran-order vectors are copied once, to C order;
    # slicing has joined its window in C order already
    vectors = np.ascontiguousarray(vectors[:, :stop])
    _fix_signs(vectors)

    _check_invariants(pair, values, vectors)
    groups = degeneracy_partition(values, tol_deg)
    logger.debug(
        "solved %d modes (%s), %d requested, %d returned, %d Lanczos runs, "
        "%d inertia factorizations, %d slices, %d degeneracy groups, "
        "lambda range [%g, %g]",
        solved.shape[0], path, n_modes, stop, counts["lanczos"], counts["inertia"],
        slices, len(groups), values[0], values[-1],
    )
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralData(
        pair=pair,
        eigenvalues=values,
        eigenvectors=vectors,
        degeneracy_groups=groups,
        tol_deg=tol_deg,
        closed=True,
    )


# entries that overflow in the scaling fail the finiteness check, without
# a warning
@np.errstate(over="ignore", invalid="ignore")
def _solve_dense(pair, n_modes):
    """Lowest n_modes eigenpairs by LAPACK, in one n x n working array.

    S = M0^-1/2 K M0^-1/2 is scaled in place, in Fortran order, and its
    lower triangle is overwritten with 0.5 (S + S^T) a block of columns at
    a time, each block checked finite there, so that eigh needs no n x n
    mask of its own.  eigh (dsyevr) reads only that triangle and
    overwrites the array, and Fortran order spares f2py its copy.  The
    results are bit-identical to solving an explicitly symmetrized copy.
    """
    n = pair.node_count
    _check_dense_budget(n, n_modes)
    inv_sqrt_m = 1.0 / np.sqrt(pair.mass)
    s = pair.stiffness.toarray(order="F")
    s *= inv_sqrt_m[:, None]
    s *= inv_sqrt_m[None, :]
    for j in range(0, n, DENSE_BLOCK):
        cols, rows = slice(j, j + DENSE_BLOCK), slice(j + DENSE_BLOCK, None)
        # numpy copies an operand that may overlap its output: only the
        # diagonal block does, the columns below it and the rows right of
        # it lie apart in Fortran order
        diagonal = s[cols, cols]
        diagonal += diagonal.T
        s[rows, cols] += s[cols, rows].T
        lower = s[j:, cols]
        lower *= 0.5
        if not np.isfinite(lower).all():
            raise NumericalBreakdownError("scaled stiffness matrix has non-finite entries")
    subset = [0, n_modes - 1] if n_modes < n else None
    values, vectors = scipy.linalg.eigh(
        s, subset_by_index=subset, overwrite_a=True, check_finite=False
    )
    del s, lower, diagonal  # views of s
    vectors *= inv_sqrt_m[:, None]
    return values, vectors


def _check_dense_budget(n, n_modes):
    """Refuse a dense solve whose matrix and eigenvectors exceed DENSE_BUDGET_BYTES."""
    needed = 8 * n * (n + n_modes)
    if needed > DENSE_BUDGET_BYTES:
        raise NumericalBreakdownError(
            f"dense eigensolve of {n_modes} modes on {n} nodes needs {needed} "
            f"bytes, above the dense budget of {DENSE_BUDGET_BYTES} bytes"
        )


class _SparseFallback(Exception):
    """Slicing cannot deliver a certified answer; use dense."""


def _solve_sliced(kernels, n_modes, tol_deg):
    """The closed window of n_modes, one certified Lanczos run per slice.

    Spectrum slicing (Ericsson & Ruhe 1980; Grimes, Lewis & Simon 1994).
    Slice 0 runs about a shift just below zero, so a few modes take one
    slice, one certified run.  Each later slice runs about a shift placed
    above the last boundary by Weyl's law: the counting function of a
    surface grows linearly, so the mean spacing of the eigenvalues so far
    puts about 3/8 of the slice's modes between the boundary and the
    shift.  Every slice ends at a new boundary in a gap between degeneracy
    groups, certified by inertia (see _slice).  The slices stop once the
    group of mode n_modes - 1 has closed below the last boundary.  Returns
    (values, vectors, slices): the `stop` lowest eigenpairs, through the
    end of that group, and the number of slices; raises _SparseFallback
    when a slice cannot be certified.
    """
    lower = sigma = _ground_shift(kernels.stiffness, kernels.pair.mass)
    count, stop = 0, n_modes
    accepted_values, accepted_vectors = [], []
    while True:
        # a quarter more than the cut needs, so that its group closes in
        # this slice
        want = min(SPARSE_SLICE_MODES, (stop - count) * 5 // 4 + 4)
        if count:
            spacing = (lower - accepted_values[0][0]) / count
            sigma = lower + 0.375 * want * spacing
        values, vectors, lower, above = _slice(
            kernels, sigma, lower, count, want, accepted_vectors, tol_deg
        )
        accepted_values.append(values)
        accepted_vectors.append(vectors)
        count += values.shape[0]
        # the first value past the boundary shows whether the cut's group
        # has closed
        all_values = np.concatenate(accepted_values + [[above]])
        stop = complete_group_count(degeneracy_partition(all_values, tol_deg), n_modes)
        if stop <= count:
            # mode n_modes - 1 lies in the last slice (an earlier boundary
            # would have closed its group), so trimming that slice alone
            # leaves the join the window
            last = accepted_vectors[-1]
            accepted_vectors[-1] = last[:, : last.shape[1] - (count - stop)]
            vectors = np.concatenate(accepted_vectors, axis=1)
            return all_values[:stop], vectors, len(accepted_values)


def _slice(kernels, sigma, lower, count, want, accepted, tol_deg):
    """About `want` eigenpairs from `lower` up, by shift-invert Lanczos about sigma.

    `count` eigenvalues lie below `lower`, and `accepted` holds their
    eigenvectors in blocks.  Slice 0 (sigma == lower) must have no
    eigenvalue below its shift, and asks for `want` modes.  A later slice
    asks for twice the modes the inertia count at sigma puts between
    `lower` and sigma, plus half of `want`, and its run must reach back
    past `lower`; its basis is M0-orthogonalized against the accepted
    blocks before Rayleigh-Ritz.  The highest group found may miss copies
    beyond the run's reach, so the new boundary lies in the gap below it,
    and the inertia count there must exceed `count` by exactly the number
    accepted.  Otherwise the run is repeated with half as many modes more,
    up to three runs.
    Returns (values, vectors, boundary, first value above the boundary).
    """
    pair = kernels.pair
    k_ask = None
    for _ in range(3):
        lu, below = kernels.inertia(sigma)
        if below < count or (sigma == lower and below != count):
            raise _SparseFallback(f"inertia count {below} below the shift {sigma:.3e}")
        if k_ask is None:
            k_ask = want if sigma == lower else 2 * (below - count) + want // 2
        k_ask = min(max(k_ask, 2), pair.node_count - 1)
        reach, basis = kernels.lanczos(sigma, lu, k_ask)
        del lu  # one factorization held at a time
        if accepted:
            basis = _deflate(basis, accepted, pair.mass)
        values, coeffs = _rayleigh_ritz(kernels.stiffness, pair.mass, basis)
        first = int(np.searchsorted(values, lower))
        groups = degeneracy_partition(values[first:], tol_deg)
        # the run holds every eigenvalue nearer to sigma than its farthest
        # Ritz value; a group at that distance may miss copies
        if sigma != lower and not reach.min() < lower:
            reason = f"run about {sigma:.6e} short of {lower:.6e}"
        elif reach.max() < sigma:
            # nothing between the highest value found and sigma, so sigma
            # is the boundary and its inertia count the certificate
            stop, mu, above = values.shape[0], sigma, 2.0 * sigma - reach.min()
            if below - count == stop - first:
                vectors = np.einsum("ia,ab->ib", basis, coeffs[:, first:stop])
                return values[first:], vectors, mu, above
            reason = f"inertia count {below} below {mu:.6e}, found {count + stop - first}"
        elif len(groups) >= 2:
            stop = first + groups[-1][0]
            mu = 0.5 * (values[stop - 1] + values[stop])
            _, below_mu = kernels.inertia(mu)
            if below_mu - count == stop - first:
                vectors = np.einsum("ia,ab->ib", basis, coeffs[:, first:stop])
                return values[first:stop], vectors, mu, values[stop]
            reason = f"inertia count {below_mu} below {mu:.6e}, found {count + stop - first}"
        else:
            reason = f"{len(groups)} groups above {lower:.6e}"
        k_ask += k_ask // 2
    raise _SparseFallback(f"{reason} after three runs")


def _deflate(basis, accepted, mass):
    """M0-orthonormal basis of the part of `basis` M0-orthogonal to the accepted blocks.

    Classical Gram-Schmidt, twice.  Lanczos vectors of accepted
    eigenvalues keep only a tiny norm; directions whose Gram eigenvalue
    is below one half are dropped.  einsum, not BLAS, as in _rayleigh_ritz.
    Overwrites `basis`.
    """
    for _ in range(2):
        weighted = mass[:, None] * basis
        for block in accepted:
            overlap = np.einsum("ia,ib->ab", block, weighted)
            basis -= np.einsum("ia,ab->ib", block, overlap)
    gram = np.einsum("ia,ib->ab", basis, mass[:, None] * basis)
    scale, rotation = scipy.linalg.eigh(0.5 * (gram + gram.T))
    kept = scale > 0.5
    return np.einsum("ia,ab->ib", basis, rotation[:, kept] / np.sqrt(scale[kept]))


def _rayleigh_ritz(stiffness, mass, basis):
    """Ritz values and coefficients of K psi = lambda M0 psi on the basis.

    The Ritz vectors basis @ coeffs are M0-orthonormal, also inside
    degenerate groups.  The products go through einsum, not BLAS: OpenBLAS
    sums these long inner products in an order that depends on its
    thread count.
    """
    a = np.einsum("ia,ib->ab", basis, stiffness @ basis)
    b = np.einsum("ia,ib->ab", basis, mass[:, None] * basis)
    return scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T))


def _ground_shift(stiffness, mass):
    """A shift just below the spectrum of a Laplacian, relative to max K_ii / M_ii."""
    return -SPARSE_SHIFT_REL * max(float(np.max(np.abs(stiffness.diagonal()) / mass)), 1.0)


class _Kernels:
    """The sparse kernels of one operator pair: every SuperLU factorization
    and ARPACK run of the package goes through one of these.

    Holds K in CSC and M0 as a sparse diagonal, fixes the options of each
    factorization, and counts the calls of each kernel.  The model is
    SLEPc's spectral transformation (Hernandez, Roman & Vidal, ACM TOMS
    2005).  Build one per sliced solve and one per bordered group solve;
    nothing here outlives it.  An order shared by every factorization, or
    a thread pin around every kernel, belongs here.
    """

    def __init__(self, pair):
        import scipy.sparse.linalg as spla  # lazy: keeps `import isospec.cli` light

        self.spla = spla
        self.pair = pair
        self.stiffness = pair.stiffness.tocsc()
        self.mass = scipy.sparse.diags(pair.mass, format="csc")
        self.counts = Counter()

    def inertia(self, sigma):
        """(LU, count of negative pivots) of K - sigma M0.

        Diagonal pivoting with a symmetric fill-reducing order makes SuperLU's
        LU an LDL^T factorization, U = D L^T, so by Sylvester's law of inertia
        the negative pivots count the eigenvalues below sigma.
        """
        self.counts["inertia"] += 1
        try:
            lu = self.spla.splu(
                (self.stiffness - sigma * self.mass).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # exactly singular pivot
            raise _SparseFallback(f"shifted factorization failed: {exc}") from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise _SparseFallback("shifted factorization pivoted off the diagonal")
        return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0))

    def lanczos(self, sigma, lu, k_ask):
        """Ritz values and basis of the k_ask modes nearest sigma, from the fixed start vector.

        lu factors K - sigma M0; ARPACK in shift-invert mode.
        """
        spla, mass = self.spla, self.pair.mass
        n = mass.shape[0]
        # a basis of k + max(k / 3, 20) vectors, not ARPACK's 2 k + 1: as many
        # solves (3 k at 2562 nodes), a smaller basis, and on 2562 nodes the
        # n x ncv products stay below 460,800 entries, from which OpenBLAS
        # splits its dgemv across threads and the split changes the rounding
        ncv = min(k_ask + max(k_ask // 3, 20), n)
        mass_op = spla.LinearOperator((n, n), matvec=lambda x: mass * x, dtype=float)
        shift_invert = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        self.counts["lanczos"] += 1
        try:
            return spla.eigsh(
                self.stiffness, k_ask, M=mass_op, sigma=sigma, which="LM",
                v0=start, tol=0, OPinv=shift_invert, ncv=ncv,
                maxiter=ARPACK_MAX_RESTARTS,
            )
        except spla.ArpackError as exc:
            raise _SparseFallback(f"ARPACK failed at k_ask={k_ask}: {exc}") from exc

    def bordered(self, lam_g, border, rhs, members):
        """The top n rows of Y in [[lam_g M0 - K, B], [B^T, 0]] Y = [rhs; 0], B the n x m border.

        SuperLU's default order and partial pivoting; an exactly zero pivot
        is a breakdown of the group of modes `members`.
        """
        n, m = border.shape
        self.counts["bordered"] += 1
        system = scipy.sparse.bmat(
            [[lam_g * self.mass - self.stiffness, border], [border.T, None]], format="csc"
        )
        try:
            lu = self.spla.splu(system)
        except RuntimeError as exc:  # an exactly zero pivot
            raise NumericalBreakdownError(
                f"bordered system of modes {members[0]}-{members[-1]} is singular"
            ) from exc
        return lu.solve(np.vstack([rhs, np.zeros((m, m))]))[:n]


# a margin that overflows to inf or NaN fails its check, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _check_invariants(pair, values, vectors):
    # a block of columns at a time, so that a full solve holds no second
    # n x n array here
    k = values.shape[0]
    ortho_err = 0.0
    res_norms = np.empty(k)
    for j in range(0, k, DENSE_BLOCK):
        cols = slice(j, j + DENSE_BLOCK)
        block = vectors[:, cols]
        weighted = pair.mass[:, None] * block
        gram = vectors.T @ weighted
        gram[cols] -= np.eye(block.shape[1])
        ortho_err = np.maximum(ortho_err, np.abs(gram).max())
        residual = pair.stiffness @ block - weighted * values[None, cols]
        res_norms[cols] = np.linalg.norm(residual, axis=0)
    if not ortho_err <= 1e-10:
        raise NumericalBreakdownError(f"M0-orthonormality violated: {ortho_err:.3e}")
    # backward-error floor: || K psi - lam M psi || grows with the problem
    # scale sqrt(m_max) * lam_max even for a perfect solver
    floor = (
        100.0
        * np.finfo(float).eps
        * np.sqrt(pair.mass.max())
        * (1.0 + float(np.abs(values).max()))
    )
    bounds = 1e-9 * (1.0 + np.abs(values)) + floor
    if not np.all(res_norms <= bounds):
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
