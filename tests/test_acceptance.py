"""Acceptance battery: the ten criteria of isospec.selftest at full size.

Each test prints one verdict line (shown with -s; -v shows one outcome per
criterion either way).  Shared full solves are built on first use, inside
the timed section of the first criterion that needs them.
"""

import time

import pytest

from isospec import selftest as st

TORUS16, TORUS24, TORUS32 = ("torus", 16), ("torus", 24), ("torus", 32)
FD_FIELDS = ["cos(2*pi*x)", "cos(2*pi*x)*cos(2*pi*y)", 11]
SEED = 20240817


@pytest.fixture(scope="module")
def setups():
    return st.Setups()


def run(setups, number, label, budget, check, **data):
    """Run one criterion within budget seconds (None: no budget); print its verdict."""
    ok = False
    try:
        started = time.monotonic()
        check(setups, **data)
        assert budget is None or time.monotonic() - started <= budget
        ok = True
    finally:
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")


def test_criterion_01_torus_spectrum_oracle(setups):
    run(setups, 1, "32x32 torus levels match the 5-point symbol and continuum", 10.0,
        st.torus_spectrum, nx=32, n_modes=49)


def test_criterion_02_first_order_vs_finite_differences(setups):
    run(setups, 2, "first-order corrections match h=1e-4 central differences", 30.0,
        st.finite_differences, surface=TORUS32, fields=FD_FIELDS, n_modes=16, order=1)


def test_criterion_03_second_order_vs_finite_differences(setups):
    run(setups, 3, "second-order corrections match h=1e-3 second differences", 60.0,
        st.finite_differences, surface=TORUS24, fields=FD_FIELDS, n_modes=16, order=2)


def test_criterion_04_gauge_independence(setups):
    run(setups, 4, "random G leave eigenvalue corrections bit-identical", None,
        st.g_independence, surface=TORUS16, field=5, trials=20, seed=SEED)


def test_criterion_05_degenerate_tracking_is_cubic(setups):
    run(setups, 5, "adapted corrections track exact branches at O(t^3)", None,
        st.degenerate_tracking, surface=TORUS24, n_modes=5,
        fields=[("cos(4*pi*x)", 1e-3), (7, 1e-3)])


def test_criterion_06_obstruction_kernel_trivial(setups):
    run(setups, 6, "Fourier obstruction map has trivial kernel at N=20", None,
        st.obstruction_kernel, surface=TORUS32, n_modes=20, basis=slice(1, 10),
        windows=range(2, 21))


def test_criterion_07_no_isospectral_segments(setups):
    run(setups, 7, "random positive endpoint pairs never bound a flat segment", 300.0,
        st.no_flat_segments, surface=TORUS16, n_modes=6, trials=20, seed=SEED,
        taus=(0.0, 0.25, 0.5, 0.75, 1.0), bump=slice(1, 10), amplitude=0.3, unit_peak=True)


def test_criterion_08_vanishing_diagonal_identity(setups):
    run(setups, 8, "zero-diagonal field satisfies the square-sum identity", None,
        st.square_sum_identity, surface=TORUS16, n_zero=13, basis=slice(1, 40))


def test_criterion_09_mesh_backend_parity(setups):
    run(setups, 9, "icosphere mesh replays the correction checks at 10x tol", 180.0,
        st.mesh_parity, surface=("icosphere", 2), n_modes=16, trials=20, seed=SEED,
        fields=["0.3*x*y", "0.25*(x*x - y*y)", "0.2*x*y + 0.15*y*z + 0.1*(x*x - z*z)"])


def test_criterion_10_weyl_area(setups):
    run(setups, 10, "counting fit recovers the unit torus area within 15%", None,
        st.weyl_area, nx=48, n_modes=100)
