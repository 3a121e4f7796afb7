import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from isospec import cli, eigen, errors
from isospec.selftest import run_selftest

from conftest import OCTAHEDRON_OFF


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def torus_config(nx=12, **extra):
    data = {"surface": {"kind": "torus", "nx": nx, "ny": nx}}
    data.update(extra)
    return data


def last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------- happy paths


def test_spectrum_end_to_end(tmp_path):
    config = write_config(tmp_path, torus_config(n_modes=6))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", config, "--out", str(out)]) == 0
    rows = read_rows(out / "spectrum.csv")
    assert len(rows) == 1 + 6
    assert abs(float(rows[1][1])) <= 1e-10

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "spectrum"
    assert manifest["artifacts"] == ["spectrum.csv"]
    assert manifest["config"]["n_modes"] == 6
    assert set(manifest["versions"]) == {"isospec", "numpy", "scipy", "python"}


def test_corrections_zero_field_and_group_extension(tmp_path):
    config = write_config(
        tmp_path, torus_config(n_modes=6, f1="0", side="inverse_metric")
    )
    out = tmp_path / "out"
    assert cli.main(["corrections", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "corrections.json").read_text())
    # six requested modes end inside the second harmonic level; the report
    # is extended to the end of that degeneracy group
    assert data["n_modes"] == 9
    assert len(data["lambda1"]) == 9
    assert np.abs(data["lambda1"]).max() == 0.0
    assert np.abs(data["lambda2"]).max() == 0.0
    assert all(group[-1] < 9 for group in data["degeneracy_groups"])
    assert data["schema_version"] == 2
    assert set(data) == {
        "schema_version", "n_modes", "tol_deg", "degeneracy_groups",
        "lambda0", "lambda1", "lambda2",
    }


@pytest.mark.parametrize("command", ["corrections", "metric-probe", "obstruction"])
def test_second_order_commands_solve_windows(tmp_path, solver_counts, command):
    # every eigensolve, windowed or not, goes through the shared solve;
    # none of them may return the full spectrum
    extra = {} if command == "obstruction" else {"f1": "0.2*cos(2*pi*x)*sin(2*pi*y)"}
    config = write_config(tmp_path, torus_config(nx=24, **extra))
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert solver_counts["modes"] and max(solver_counts["modes"]) < 24 * 24


def test_obstruction_end_to_end(tmp_path):
    config = write_config(tmp_path, torus_config(n_modes=8, basis_size=5))
    out = tmp_path / "out"
    assert cli.main(["obstruction", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "obstruction.json").read_text())
    assert data["field_dim"] == 5
    # eight requested modes end inside the (+-1, +-1) level, modes 5-8; the
    # window is widened to the end of that degeneracy group
    assert data["n_modes"] == 9
    assert data["kernel_dim"] == 0
    assert len(data["singular_values"]) == 5


def test_obstruction_window_is_solver_independent(tmp_path, monkeypatch, caplog, icosphere2_path):
    # ten modes on icosphere 2 (levels of 1, 3, 5 and 4 modes) cut the fourth
    # level; over the widened window of 13 modes the dense and the sliced
    # solver span the same eigenspaces, so the singular values agree
    config = write_config(
        tmp_path, {"surface": {"kind": "mesh", "path": str(icosphere2_path)}, "n_modes": 10}
    )
    caplog.set_level(logging.DEBUG, logger="isospec.eigen")
    runs = []
    for name in ("dense", "sliced"):
        if name == "sliced":
            monkeypatch.setattr(eigen, "SPARSE_MIN_NODES", 100)
        caplog.clear()
        assert cli.main(["obstruction", "--config", config, "--out", str(tmp_path / name)]) == 0
        assert f"({name})" in caplog.text
        runs.append(json.loads((tmp_path / name / "obstruction.json").read_text()))
    assert runs[0]["n_modes"] == runs[1]["n_modes"] == 13
    np.testing.assert_allclose(
        runs[0]["singular_values"], runs[1]["singular_values"], rtol=0.0, atol=1e-12
    )


def test_convexity_end_to_end(tmp_path):
    config = write_config(
        tmp_path,
        torus_config(n_modes=4, c1="1", c2="2", tau_grid=[0.0, 0.5, 1.0]),
    )
    out = tmp_path / "out"
    assert cli.main(["convexity", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "convexity.json").read_text())
    assert data["endpoints_isospectral_gap"] > 0.3
    assert data["spectral_distances"][0] == 0.0
    rows = read_rows(out / "convexity.csv")
    assert len(rows) == 1 + 3 * 4


def test_metric_probe_end_to_end(tmp_path):
    config = write_config(
        tmp_path,
        torus_config(n_modes=5, f1="cos(2*pi*x)", t_grid=[1e-3, -1e-3]),
    )
    out = tmp_path / "out"
    assert cli.main(["metric-probe", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "metric_probe.json").read_text())
    assert data["collapsed_vs_generic_max"] <= 1e-9
    assert data["fd_step"] == pytest.approx(1e-3)
    assert len(data["fd_lambda1"]) == 5
    rows = read_rows(out / "metric_probe.csv")
    assert len(rows) == 3


def test_weyl_end_to_end(tmp_path):
    config = write_config(tmp_path, torus_config(nx=24))
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", config, "--out", str(out)]) == 0
    data = json.loads((out / "weyl.json").read_text())
    assert data["n_modes"] == 100
    assert data["analytic_area"] == pytest.approx(1.0)
    assert abs(data["estimated_area"] - 1.0) <= 0.15


def test_modes_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, torus_config(n_modes=6))
    out = tmp_path / "out"
    argv = ["spectrum", "--config", config, "--out", str(out), "--modes", "4"]
    assert cli.main(argv) == 0
    assert len(read_rows(out / "spectrum.csv")) == 1 + 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_modes"] == 4


def test_mode_request_clamped_to_node_count(tmp_path):
    config = write_config(tmp_path, torus_config())
    out = tmp_path / "out"
    argv = ["spectrum", "--config", config, "--out", str(out), "--modes", "500"]
    assert cli.main(argv) == 0
    assert len(read_rows(out / "spectrum.csv")) == 1 + 144


MODE_COUNT_EXTRA = {
    "spectrum": {},
    "corrections": {"f1": "0.2*cos(2*pi*x)*sin(2*pi*y)"},
    "obstruction": {},
    "convexity": {"c1": "1", "c2": "2+cos(2*pi*x)"},
    "metric-probe": {"f1": "0.1*cos(2*pi*x)"},
    "weyl": {},
}


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_every_subcommand_clamps_modes_to_the_node_count(tmp_path, command):
    config = write_config(tmp_path, torus_config(nx=8, **MODE_COUNT_EXTRA[command]))
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out), "--modes", "100"]
    assert cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_modes"] == 64
    for name in manifest["artifacts"]:
        if name.endswith(".json"):
            assert json.loads((out / name).read_text())["n_modes"] == 64, name
            continue
        # metric_probe.csv has one row per step t, not per mode
        with open(out / name, newline="") as fh:
            modes = {row["mode"] for row in csv.DictReader(fh) if "mode" in row}
        assert len(modes) == (0 if name == "metric_probe.csv" else 64), name


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_manifest_echoes_the_effective_config(tmp_path, command):
    given = torus_config(**MODE_COUNT_EXTRA[command])
    config = write_config(tmp_path, given)
    outs = [tmp_path / "first", tmp_path / "second"]
    assert cli.main([command, "--config", config, "--out", str(outs[0])]) == 0
    echo = json.loads((outs[0] / "manifest.json").read_text())["config"]
    defaults = {
        key: default for key, default in cli._SUBCOMMANDS[command].config_keys.items()
        if default is not None and default is not cli.REQUIRED
    }
    # the surface echo holds the periods' defaults too
    surface = {"kind": "torus", "nx": 12, "ny": 12, "lx": 1.0, "ly": 1.0}
    assert echo == {**json.loads(json.dumps(defaults)), **given, "surface": surface}
    # the echo is itself a config, and it reproduces the run
    again = write_config(tmp_path, echo, name="echo.json")
    assert cli.main([command, "--config", again, "--out", str(outs[1])]) == 0
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert manifests[1]["config"] == echo
    for name in manifests[0]["artifacts"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_manifest_reproducible(tmp_path):
    config = write_config(tmp_path, torus_config(n_modes=6))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["spectrum", "--config", config, "--out", str(out)]) == 0
    csv_bytes = [(out / "spectrum.csv").read_bytes() for out in outs]
    assert csv_bytes[0] == csv_bytes[1]
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    for manifest in manifests:
        assert manifest.pop("wall_time_s") >= 0.0
    assert manifests[0] == manifests[1]


def test_log_level_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOSPEC_LOG", "NOT-A-LEVEL")
    config = write_config(tmp_path, torus_config(n_modes=4))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path / "x")]) == 0
    monkeypatch.setenv("ISOSPEC_LOG", "DEBUG")
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path / "y")]) == 0


# ---------------------------------------------------------- exit-code contract

# every IsospecError class in one family; a new class must be listed here
INPUT_ERRORS = {
    "InputError", "ConfigError", "ExpressionError", "MeshParseError",
    "MeshTopologyError", "GridTooSmallError", "DegenerateTriangleError",
    "ModeCountError", "InsufficientModesError",
}
NUMERICAL_ERRORS = {
    "IsospecError", "SurfaceMismatchError", "PositivityError",
    "NumericalBreakdownError", "SmallGapError", "RankDeficientBasisError",
}


def test_error_family_decides_exit_code(tmp_path, capsys, monkeypatch):
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.IsospecError)
    }
    assert set(classes) == INPUT_ERRORS | NUMERICAL_ERRORS
    assert not INPUT_ERRORS & NUMERICAL_ERRORS
    config = write_config(tmp_path, torus_config())
    for name, cls in sorted(classes.items()):
        error = cls("boom", node_index=0) if cls is errors.PositivityError else cls("boom")

        def runner(config, surface, n_modes, error=error):
            raise error

        spectrum = cli._SUBCOMMANDS["spectrum"]._replace(run=runner)
        monkeypatch.setitem(cli._SUBCOMMANDS, "spectrum", spectrum)
        code = cli.main(["spectrum", "--config", config, "--out", str(tmp_path / "out")])
        assert code == (2 if name in INPUT_ERRORS else 3), name
        assert only_error(capsys) == {"error": name, "message": "boom"}


# -------------------------------------------------------------- config errors


def test_unknown_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(n_modes=4, frobnicate=1))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    record = last_error(capsys)
    assert record["error"] == "ConfigError"
    assert "unknown keys" in record["message"]
    assert "frobnicate" in record["message"]


def test_missing_required_key(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(n_modes=4))
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path)]) == 2
    assert "missing required key 'f1'" in last_error(capsys)["message"]


def test_missing_mesh_file(tmp_path, capsys):
    config = write_config(
        tmp_path, {"surface": {"kind": "mesh", "path": str(tmp_path / "no.off")}}
    )
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    assert "not found" in last_error(capsys)["message"]


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert last_error(capsys)["error"] == "ConfigError"


def test_metric_side_rejects_f2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        torus_config(f1="cos(2*pi*x)", f2="cos(2*pi*y)", side="metric"),
    )
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path)]) == 2
    assert "metric side" in last_error(capsys)["message"]


def test_tol_deg_range_enforced(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(tol_deg=0.5))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    assert "tol_deg" in last_error(capsys)["message"]


def test_negative_seed_rejected(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(seed=-1))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    assert "seed" in last_error(capsys)["message"]


def test_grid_too_small_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(nx=2))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    assert last_error(capsys)["error"] == "GridTooSmallError"


@pytest.mark.parametrize("nx", [2**60, 10**20])
def test_oversized_grid_is_config_error(tmp_path, capsys, monkeypatch, nx):
    # 4*nx float64 node values exceed the address space; the grid is refused
    # before any array is built
    monkeypatch.setattr(cli, "assemble_base", lambda surface: pytest.fail("assembled"))
    config = write_config(tmp_path, {"surface": {"kind": "torus", "nx": nx, "ny": 4}})
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2
    assert only_error(capsys)["error"] == "GridTooSmallError"


def test_bad_expression_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(f1="bessel(x)"))
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path)]) == 2
    assert last_error(capsys)["error"] == "ExpressionError"


def only_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


@pytest.mark.parametrize(
    "expr",
    [
        "-" * 200000 + "x",  # parser stack overflow (MemoryError)
        "x+" * 200000 + "x",  # recursion while the parser builds the tree
        "x+" * 2000 + "x",  # parses, recursion while evaluating
    ],
    ids=["deep-unary", "deep-binary-parse", "deep-binary-eval"],
)
def test_deeply_nested_expression_is_config_error(tmp_path, capsys, expr):
    config = write_config(tmp_path, torus_config(f1=expr))
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path)]) == 2
    assert only_error(capsys)["error"] == "ExpressionError"


# expressions whose evaluation makes numpy warn: division by zero, overflow, nan
WARNING_EXPRESSIONS = ["1/x", "1e200*1e200*x", "pow(x-1, 0.5)"]


@pytest.mark.parametrize("f1", WARNING_EXPRESSIONS)
def test_non_finite_expression_is_config_error(tmp_path, capsys, f1):
    # the suite turns a RuntimeWarning into an exception, so a numpy warning
    # raised while evaluating would escape main instead of giving exit 2
    config = write_config(tmp_path, torus_config(nx=8, f1=f1))
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path / "out")]) == 2
    record = only_error(capsys)
    assert record["error"] == "ExpressionError"
    assert "non-finite" in record["message"]


@pytest.mark.parametrize("f1", WARNING_EXPRESSIONS)
def test_non_finite_expression_writes_only_the_error_record(tmp_path, f1):
    config = write_config(tmp_path, torus_config(nx=8, f1=f1))
    done = run_module(["-m", "isospec.cli", "corrections", "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "ExpressionError"


def test_tau_grid_outside_unit_interval_is_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path, torus_config(n_modes=4, c1="1", c2="1", tau_grid=[0.5, 2.0])
    )
    assert cli.main(["convexity", "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "tau_grid" in record["message"]


GRID_KEYS = [
    ("metric-probe", "t_grid", {"f1": "0.1*cos(2*pi*x)"}),
    ("convexity", "tau_grid", {"c1": "1", "c2": "1"}),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("command, key, extra", GRID_KEYS)
def test_non_finite_grid_is_config_error(tmp_path, capsys, command, key, extra, value):
    data = torus_config(n_modes=4, **extra)
    data[key] = [0.5, value]
    config = write_config(tmp_path, data)
    assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert key in record["message"]


@pytest.mark.parametrize(
    "grid", [None, 0.5, "0.5", [], ["0.5"], [True]],
    ids=["null", "number", "string", "empty", "string-entry", "bool-entry"],
)
@pytest.mark.parametrize("command, key, extra", GRID_KEYS)
def test_wrong_type_grid_is_config_error(tmp_path, capsys, command, key, extra, grid):
    # a null grid is refused like a null for any other key, not read as the default
    config = write_config(tmp_path, {**torus_config(n_modes=4, **extra), key: grid})
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert key in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, surface, extra, error",
    [
        ("obstruction", {}, {"kernel_tol": float("nan")}, "ConfigError"),
        ("spectrum", {"lx": float("inf")}, {}, "ConfigError"),
        ("spectrum", {"ly": 1e308}, {}, "GridTooSmallError"),
        ("spectrum", {"ly": 1e-300}, {}, "GridTooSmallError"),
        # 1/h^2 is finite, but the top of the spectrum, 4/h^2, is not
        ("spectrum", {"ly": 1.5e-153}, {}, "GridTooSmallError"),
    ],
    ids=["kernel_tol-nan", "lx-inf", "ly-huge", "ly-tiny", "ly-spectrum-overflow"],
)
def test_extreme_float_is_config_error(tmp_path, capsys, command, surface, extra, error):
    data = torus_config(n_modes=4, **extra)
    data["surface"].update(surface)
    config = write_config(tmp_path, data)
    assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 2
    assert only_error(capsys)["error"] == error


@pytest.mark.parametrize("kernel_tol", [1.0, 1e308])
def test_kernel_tol_at_or_above_one_is_config_error(tmp_path, capsys, kernel_tol):
    # a relative threshold of 1 or more would put every singular value in
    # the kernel; 1e308 overflowed the threshold to inf and warned
    config = write_config(tmp_path, torus_config(nx=8, kernel_tol=kernel_tol))
    assert cli.main(["obstruction", "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "kernel_tol" in record["message"]


@pytest.mark.parametrize("command", ["corrections", "metric-probe"])
def test_degenerate_period_is_numerical_error(tmp_path, capsys, command):
    # at ly = 1e154 the couplings along y are 1e-308 of those along x, and the
    # bordered factorization of a group meets an exactly zero pivot
    data = {"surface": {"kind": "torus", "nx": 4, "ny": 7, "ly": 1e154}, "f1": "0.3*x"}
    config = write_config(tmp_path, data)
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert only_error(capsys)["error"] == "NumericalBreakdownError"


def test_singular_bordered_system_is_numerical_error(tmp_path, capsys, monkeypatch):
    # a fault injected where the per-group solve calls SuperLU; the 12 x 12
    # torus takes the dense eigensolve, so only the bordered systems meet it
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    config = write_config(tmp_path, torus_config(n_modes=4, f1="0.3*cos(2*pi*x)"))
    assert cli.main(["corrections", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert only_error(capsys) == {
        "error": "NumericalBreakdownError",
        "message": "bordered system of modes 1-4 is singular",
    }


def test_basis_larger_than_surface_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(nx=8, basis_size=100))
    assert cli.main(["obstruction", "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "basis_size" in record["message"]


@pytest.mark.parametrize(
    "nx, flags", [(8, ["--modes", "10"]), (4, [])], ids=["modes-flag", "clamped"]
)
def test_weyl_with_too_few_modes_is_config_error(tmp_path, capsys, nx, flags):
    # the 4 x 4 torus clamps weyl's 100 modes to its 16 nodes
    config = write_config(tmp_path, torus_config(nx=nx))
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", config, "--out", str(out), *flags]) == 2
    record = only_error(capsys)
    assert record["error"] == "InsufficientModesError"
    assert "at least 50 modes" in record["message"]
    assert not out.exists() or list(out.iterdir()) == []


def test_undecodable_mesh_is_config_error(tmp_path, capsys):
    path = tmp_path / "octahedron.off"
    path.write_bytes(OCTAHEDRON_OFF.encode() + b"# \xff\n")
    config = write_config(tmp_path, {"surface": {"kind": "mesh", "path": str(path)}})
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path / "out")]) == 2
    record = only_error(capsys)
    assert record["error"] == "MeshParseError"
    assert str(path) in record["message"]


@pytest.mark.parametrize(
    "command, data, error",
    [
        ("spectrum", torus_config(frobnicate=1), "ConfigError"),
        ("spectrum", {"surface": {"kind": "sphere"}}, "ConfigError"),
        ("spectrum", {"surface": "misoriented-octahedron"}, "MeshTopologyError"),
        ("spectrum", {"surface": {"kind": "torus", "nx": 2, "ny": 4}}, "GridTooSmallError"),
        ("spectrum", {"surface": {"kind": "torus", "nx": 4, "ny": 4, "lx": 0}},
         "GridTooSmallError"),
        ("obstruction", torus_config(nx=4, basis_size=20), "ConfigError"),
        ("corrections", torus_config(f1="bessel(x)"), "ExpressionError"),
        ("corrections", torus_config(f1="x", f2="y", side="metric"), "ConfigError"),
    ],
    ids=["unknown-key", "unknown-kind", "mesh-topology", "grid-2x4", "lx-zero",
         "basis-size", "expression", "metric-f2"],
)
def test_config_refusal_leaves_no_out_dir(tmp_path, capsys, command, data, error):
    # the config, its surface and its fields are refused before --out exists
    if data["surface"] == "misoriented-octahedron":
        path = tmp_path / "misoriented.off"
        path.write_text(OCTAHEDRON_OFF.replace("3 0 2 4", "3 0 4 2"))
        data = {"surface": {"kind": "mesh", "path": str(path)}}
    config = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    assert only_error(capsys)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below-file"])
def test_uncreatable_out_dir_is_config_error(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory")
    config = write_config(tmp_path, torus_config(n_modes=4))
    assert cli.main(["spectrum", "--config", config, "--out", str(tmp_path / out)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "cannot create output directory" in record["message"]


# ------------------------------------------------------------ numerical errors


def test_convexity_positivity_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(n_modes=4, c1="cos(2*pi*x)", c2="1"))
    assert cli.main(["convexity", "--config", config, "--out", str(tmp_path)]) == 3
    record = last_error(capsys)
    assert record["error"] == "PositivityError"
    assert "node" in record["message"]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("corrections", {"f1": "1e300*x"}),
        ("metric-probe", {"f1": "1e300*x"}),
        ("corrections", {"f1": "1e154*x"}),
        ("metric-probe", {"f1": "1e154*x"}),
        ("metric-probe", {"f1": "0", "t_grid": [1e300, -1e300]}),
    ],
    ids=[
        "corrections-square", "metric-probe-square", "corrections-elements",
        "metric-probe-elements", "metric-probe-t-squared",
    ],
)
def test_overflow_is_numerical_error(tmp_path, capsys, command, extra):
    # finite inputs whose squares (1e300, t^2) or matrix elements (1e154) overflow
    config = write_config(tmp_path, torus_config(nx=8, n_modes=5, **extra))
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 3
    assert only_error(capsys)["error"] == "NumericalBreakdownError"
    assert list(out.iterdir()) == []


def test_dense_budget_is_numerical_error(tmp_path, capsys, monkeypatch):
    # 20 modes of the 24 x 24 torus take the dense path: 8 * 576 * 596 bytes
    monkeypatch.setattr(eigen, "DENSE_BUDGET_BYTES", 2**20)
    config = write_config(tmp_path, torus_config(nx=24, n_modes=20))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", config, "--out", str(out)]) == 3
    record = only_error(capsys)
    assert record["error"] == "NumericalBreakdownError"
    assert "needs 2746368 bytes, above the dense budget of 1048576 bytes" in record["message"]
    assert list(out.iterdir()) == []


def test_out_of_memory_is_numerical_error(tmp_path, capsys, monkeypatch):
    def exhausted(surface):
        raise MemoryError("cannot allocate the stiffness matrix")

    monkeypatch.setattr(cli, "assemble_base", exhausted)
    config = write_config(tmp_path, torus_config(n_modes=4))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", config, "--out", str(out)]) == 3
    assert only_error(capsys) == {
        "error": "MemoryError", "message": "cannot allocate the stiffness matrix"
    }
    assert list(out.iterdir()) == []


def run_module(args, **kwargs):
    """Run python with args, the package on the path; return the CompletedProcess."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120, **kwargs,
    )


@pytest.mark.parametrize(
    "command, extra",
    [
        ("metric-probe", {"f1": "1e152*x"}),
        ("convexity", {"c1": "1+1e200*x*x", "c2": "1"}),
        ("metric-probe", {"f1": "0", "t_grid": [1e300, -1e300]}),
    ],
    ids=["metric-probe-lambda1-squared", "convexity-residual-norm", "metric-probe-t-squared"],
)
def test_overflow_writes_only_the_error_record(tmp_path, command, extra):
    # numpy overflow warnings would reach stderr ahead of the JSON record
    config = write_config(tmp_path, torus_config(nx=8, n_modes=5, **extra))
    done = run_module(["-m", "isospec.cli", command, "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "NumericalBreakdownError"


def test_overflowing_mesh_writes_only_the_error_record(tmp_path):
    # an octahedron scaled by 1e160: its areas overflow, K and the mass are not
    # finite, and assembly refuses them without a numpy warning
    lines = OCTAHEDRON_OFF.splitlines()
    scaled = [" ".join(repr(1e160 * float(x)) for x in line.split()) for line in lines[2:8]]
    path = tmp_path / "huge.off"
    path.write_text("\n".join(lines[:2] + scaled + lines[8:]) + "\n")
    config = write_config(tmp_path, {"surface": {"kind": "mesh", "path": str(path)}})
    done = run_module(["-m", "isospec.cli", "spectrum", "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    record = json.loads(lines[0])
    assert record["error"] == "NumericalBreakdownError"
    assert "non-finite" in record["message"]


def test_underflowing_mesh_writes_only_the_error_record(tmp_path):
    # an octahedron scaled by 1e-154: its areas are finite, but scaling K
    # by the inverse mass overflows, and the dense solve refuses it
    lines = OCTAHEDRON_OFF.splitlines()
    scaled = [" ".join(repr(1e-154 * float(x)) for x in line.split()) for line in lines[2:8]]
    path = tmp_path / "tiny.off"
    path.write_text("\n".join(lines[:2] + scaled + lines[8:]) + "\n")
    config = write_config(tmp_path, {"surface": {"kind": "mesh", "path": str(path)}})
    done = run_module(["-m", "isospec.cli", "spectrum", "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert "non-finite" in json.loads(lines[0])["message"]


def test_flattened_mesh_is_an_input_error(tmp_path):
    # all areas zero: the degenerate-triangle check refuses it before the
    # cotangents divide 0 by 0
    lines = OCTAHEDRON_OFF.splitlines()
    flat = [f"{i}.0 0.0 0.0" for i in range(6)]
    path = tmp_path / "flat.off"
    path.write_text("\n".join(lines[:2] + flat + lines[8:]) + "\n")
    config = write_config(tmp_path, {"surface": {"kind": "mesh", "path": str(path)}})
    done = run_module(["-m", "isospec.cli", "spectrum", "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"] == "DegenerateTriangleError"


@pytest.mark.parametrize("index", ["1.5", "99999999999999999999999"], ids=["float", "beyond-int64"])
def test_bad_face_index_is_a_parse_error_outside_pytest(tmp_path, index):
    # in a fresh interpreter no warning filter of the test suite applies:
    # numpy must not read the index through float, nor wrap it
    lines = OCTAHEDRON_OFF.splitlines()
    lines[8] = f"3 0 {index} 4"
    path = tmp_path / "bad.off"
    path.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, {"surface": {"kind": "mesh", "path": str(path)}})
    done = run_module(["-m", "isospec.cli", "spectrum", "--config", config,
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    record = json.loads(lines[0])
    assert record["error"] == "MeshParseError"
    assert record["message"].endswith("bad face line 0")


def test_import_leaves_sparse_linalg_unloaded():
    # the benchmark's setup_s times `import isospec.cli`; the sparse solvers
    # and the graph routines of the mesh check load on first use
    done = run_module(
        ["-c", "import sys, isospec.cli; "
               "print(sorted({'scipy.sparse.linalg', 'scipy.sparse.csgraph'} & set(sys.modules)))"],
        check=True,
    )
    assert done.stdout.strip() == "[]"


# --------------------------------------------------------------------- selftest


def test_selftest_command_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_selftest_seed_flag(capsys):
    assert cli.main(["selftest", "--seed", "3"]) == 0
    assert "10/10 checks passed" in capsys.readouterr().out


def test_selftest_output_deterministic():
    streams = [io.StringIO(), io.StringIO()]
    for stream in streams:
        assert run_selftest(seed=1, stream=stream) == 0
    assert streams[0].getvalue() == streams[1].getvalue()


def test_selftest_catches_corrupted_solver(monkeypatch):
    real = eigen.solve

    def skewed(pair, n_modes, tol_deg=eigen.DEFAULT_TOL_DEG):
        sd = real(pair, n_modes, tol_deg)
        return dataclasses.replace(sd, eigenvalues=sd.eigenvalues * 1.001)

    monkeypatch.setattr(eigen, "solve", skewed)
    stream = io.StringIO()
    assert run_selftest(seed=0, stream=stream) != 0
    assert "FAIL" in stream.getvalue()


_SKEWED_SELFTEST = """
import dataclasses, sys
from isospec import eigen
from isospec.selftest import run_selftest
real = eigen.solve
def skewed(pair, n_modes, tol_deg=eigen.DEFAULT_TOL_DEG):
    sd = real(pair, n_modes, tol_deg)
    return dataclasses.replace(sd, eigenvalues=sd.eigenvalues * 1.01)
eigen.solve = skewed
sys.exit(run_selftest())
"""


def test_selftest_checks_survive_optimized_python():
    # python -O strips assert statements; the criteria must still fail
    done = run_module(["-O", "-c", _SKEWED_SELFTEST])
    assert done.returncode == 1, done.stdout
    assert "FAIL" in done.stdout
