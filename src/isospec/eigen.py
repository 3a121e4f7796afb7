"""Deterministic dense solver for K psi = lambda M0 psi with degeneracy detection.

M0 is diagonal, so the generalized problem reduces exactly to the ordinary
symmetric problem for S = M0^-1/2 K M0^-1/2; eigenvectors map back through
M0^-1/2 and come out M0-orthonormal.  Everything is dense LAPACK: at desk
scale (a few thousand nodes) this is robust and bit-reproducible, with no
iterative-solver nondeterminism.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ModeCountError, NumericalBreakdownError

logger = logging.getLogger(__name__)

DEFAULT_TOL_DEG = 1e-8


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

    def group_of(self, n):
        for gid, members in enumerate(self.degeneracy_groups):
            if n in members:
                return gid
        raise IndexError(f"mode {n} outside computed range")

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

    Deterministic: identical inputs give bit-identical outputs.  Verifies
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

    inv_sqrt_m = 1.0 / np.sqrt(pair.mass)
    dense = pair.stiffness.toarray()
    s = inv_sqrt_m[:, None] * dense * inv_sqrt_m[None, :]
    s = 0.5 * (s + s.T)
    if n_modes < n:
        values, vectors = scipy.linalg.eigh(s, subset_by_index=[0, n_modes - 1])
    else:
        values, vectors = scipy.linalg.eigh(s)
    vectors = inv_sqrt_m[:, None] * vectors
    vectors = _fix_signs(np.ascontiguousarray(vectors))

    _check_invariants(pair, values, vectors)
    groups = degeneracy_partition(values, tol_deg)
    logger.debug(
        "solved %d modes, %d degeneracy groups, lambda range [%g, %g]",
        n_modes,
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
