"""Property test of the CLI exit-code contract on random, often broken configs.

Every config, however malformed, must give exit 0, 2 or 3; a failure
must end stderr with one JSON error record, and a success must write
only finite numbers.  Most drawn values are valid, so most examples reach
the numerics; the valid values include extreme extents, steps and field
amplitudes, and expressions that make numpy warn.  Runs in-process on 4^2 to 8^2 tori and the octahedron, a few
milliseconds per example.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import event, given, settings, strategies as st

from isospec import cli

BROKEN = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1.0, 0.0]),
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
)
EXTREMES = [1e300, -1e300, 1e154, 1e-300]
# expressions whose evaluation makes numpy warn: division by zero, overflow, nan
WARNING = ["1/x", "1e200*1e200*x", "pow(x-1, 0.5)"]
VALID = {
    "n_modes": st.integers(1, 70),
    "tol_deg": st.sampled_from([1e-12, 1e-8, 1e-2]),
    "seed": st.integers(0, 10**30),
    "side": st.sampled_from(["metric", "inverse_metric"]),
    "f1": st.sampled_from(
        ["0", "x", "0.2*cos(2*pi*x)*y", "1e300*x", "1e154*y", "1e-300*x"] + WARNING
    ),
    "f2": st.sampled_from(["0", "0.1*y", "1e300*x", "1e154*x*y"] + WARNING),
    "c1": st.sampled_from(["1", "1+0.5*cos(2*pi*x)", "1e300", "1+1e300*x*x", "1e-300"] + WARNING),
    "c2": st.sampled_from(["2", "3+cos(2*pi*y)", "1e154", "cos(2*pi*x)"] + WARNING),
    "basis_size": st.integers(1, 12),
    "kernel_tol": st.sampled_from([1e-8, 0.5, 1e308, 1e-300]),
    "tau_grid": st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    "t_grid": st.lists(st.sampled_from([1e-3, -1e-3, 0.1, -0.5] + EXTREMES), min_size=1, max_size=4),
}
REQUIRED = {"f1", "c1", "c2"}


def _rarely(p16):
    """True with probability p16 / 16."""
    return st.integers(0, 15).map(lambda i: i < p16)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    keys = {"n_modes", "tol_deg", "seed"} | set(cli._SUBCOMMANDS[command].keys)
    allowed = sorted(keys & set(VALID))
    data = {}
    for key in allowed:
        if draw(_rarely(14 if key in REQUIRED else 8)):
            data[key] = draw(BROKEN if draw(_rarely(1)) else VALID[key])
    if draw(_rarely(1)):
        data["frobnicate"] = 1
    shape = draw(st.integers(0, 15))
    if shape == 0:
        data["surface"] = draw(BROKEN)
    elif shape < 4:
        data["surface"] = "octahedron"
    else:
        torus = {"kind": "torus", "nx": draw(st.integers(4, 8)), "ny": draw(st.integers(4, 8))}
        for key in ("lx", "ly"):
            if draw(_rarely(3)):
                torus[key] = draw(st.sampled_from([0.5, 2.0] + EXTREMES))
        data["surface"] = torus
    flags = []
    for flag in ("--modes", "--seed"):
        if draw(_rarely(2)):
            flags += [flag, str(draw(st.integers(-1, 100)))]
    return command, data, flags


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


def _assert_finite_artifacts(out):
    for name in os.listdir(out):
        with open(os.path.join(out, name), newline="") as fh:
            if name.endswith(".json"):
                assert all(math.isfinite(x) for x in _numbers(json.load(fh))), name
            else:
                for row in list(csv.reader(fh))[1:]:
                    assert all(math.isfinite(float(cell)) for cell in row), name


@settings(max_examples=400, deadline=None, derandomize=True)
@given(run=runs())
def test_cli_exit_contract(octahedron_path, run):
    command, data, flags = run
    if data["surface"] == "octahedron":
        data["surface"] = {"kind": "mesh", "path": str(octahedron_path)}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", config, "--out", out] + flags)
        event(f"{command} exit {code}")
        assert code in (0, 2, 3)
        if code:
            record = json.loads(stderr.getvalue().strip().splitlines()[-1])
            assert set(record) == {"error", "message"}
        else:
            _assert_finite_artifacts(out)
