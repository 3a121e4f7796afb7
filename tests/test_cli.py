import csv
import dataclasses
import io
import json
import logging

import numpy as np
import pytest

from isospec import cli, eigen
from isospec.selftest import run_selftest


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
    # level; over the widened window of 13 modes the dense and the sparse
    # solver span the same eigenspaces, so the singular values agree
    config = write_config(
        tmp_path, {"surface": {"kind": "mesh", "path": str(icosphere2_path)}, "n_modes": 10}
    )
    caplog.set_level(logging.DEBUG, logger="isospec.eigen")
    runs = []
    for name in ("dense", "sparse"):
        if name == "sparse":
            monkeypatch.setattr(eigen, "SPARSE_MIN_NODES", 100)
            monkeypatch.setattr(eigen, "SPARSE_MAX_MODE_FRACTION", 0.5)
        caplog.clear()
        assert cli.main(["obstruction", "--config", config, "--out", str(tmp_path / name)]) == 0
        assert f"({name}" in caplog.text
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


def test_tau_grid_outside_unit_interval_is_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path, torus_config(n_modes=4, c1="1", c2="1", tau_grid=[0.5, 2.0])
    )
    assert cli.main(["convexity", "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "tau_grid" in record["message"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "command, key, extra",
    [
        ("metric-probe", "t_grid", {"f1": "0.1*cos(2*pi*x)"}),
        ("convexity", "tau_grid", {"c1": "1", "c2": "1"}),
    ],
)
def test_non_finite_grid_is_config_error(tmp_path, capsys, command, key, extra, value):
    data = torus_config(n_modes=4, **extra)
    data[key] = [0.5, value]
    config = write_config(tmp_path, data)
    assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert key in record["message"]


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


def test_basis_larger_than_surface_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(nx=8, basis_size=100))
    assert cli.main(["obstruction", "--config", config, "--out", str(tmp_path)]) == 2
    record = only_error(capsys)
    assert record["error"] == "ConfigError"
    assert "basis_size" in record["message"]


# ------------------------------------------------------------ numerical errors


def test_convexity_positivity_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, torus_config(n_modes=4, c1="cos(2*pi*x)", c2="1"))
    assert cli.main(["convexity", "--config", config, "--out", str(tmp_path)]) == 3
    record = last_error(capsys)
    assert record["error"] == "PositivityError"
    assert "node" in record["message"]


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
