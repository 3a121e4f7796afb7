"""Self-tests for the benchmark harness.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from isospec import cli  # noqa: E402

# ---------------------------------------------------------------- generator


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_generator_is_deterministic(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len({c.label for c in first}) == len(first)


def test_relabelled_icosphere_is_a_permutation():
    base_v, base_f = workloads._icosphere_arrays(2)
    v, f = workloads.relabelled_icosphere(2, np.random.default_rng(3))
    assert not np.array_equal(v, base_v)
    np.testing.assert_array_equal(v[f], base_v[base_f])


def test_fourier_expression_is_bounded():
    from isospec import expressions

    rng = np.random.default_rng(0)
    text = workloads.fourier_expression(rng, workloads._TORUS_WAVES, 0.4)
    grid = np.linspace(0.0, 1.0, 37)
    x, y = np.meshgrid(grid, grid)
    values = expressions.evaluate(text, {"x": x.ravel(), "y": y.ravel()})
    assert np.abs(values).max() <= 0.4 + 1e-5


# ---------------------------------------------------------------- oracles


def _call(command, surface, n_modes, **extra):
    return workloads.Call(f"{surface[0]}{surface[1]}-{command}", command, "cfg.json", surface, n_modes), extra


CASES = {
    "spectrum": _call("spectrum", ("torus", 12), 20),
    "corrections": _call(
        "corrections", ("torus", 12), 10, f1="0.3*cos(2*pi*x) + 0.1*sin(2*pi*(x + y))"
    ),
    "obstruction": _call("obstruction", ("torus", 12), 10, basis_size=9),
    "convexity": _call(
        "convexity", ("torus", 12), 8, c1="1 + 0.3*cos(2*pi*x)", c2="1 + 0.2*sin(2*pi*y)"
    ),
    "metric-probe": _call(
        "metric-probe", ("torus", 12), 10, f1="0.3*cos(2*pi*x) + 0.2*sin(2*pi*(x - y))"
    ),
    "weyl": _call("weyl", ("torus", 12), 60),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One good output directory per subcommand, made by the real CLI."""
    base = tmp_path_factory.mktemp("artifacts")
    dirs = {}
    for command, (call, extra) in CASES.items():
        kind, nx = call.surface
        config = {"surface": {"kind": kind, "nx": nx, "ny": nx}, "n_modes": call.n_modes, **extra}
        path = base / f"{command}.json"
        path.write_text(json.dumps(config))
        out = base / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        dirs[command] = out
    return dirs


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv_cell(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scale(key, index, factor):
    def edit(data):
        data[key][index] *= factor

    return edit


PERTURBATIONS = {
    "spectrum": lambda d: _edit_csv_cell(d / "spectrum.csv", 5, 1, "40.0"),
    "corrections": lambda d: _edit_json(d / "corrections.json", _scale("lambda0", 3, 1.0 + 1e-8)),
    "obstruction": lambda d: _edit_json(
        d / "obstruction.json", lambda r: r["singular_values"].reverse()
    ),
    "convexity": lambda d: _edit_json(
        d / "convexity.json", lambda r: r["spectral_distances"].__setitem__(0, 1e-3)
    ),
    "metric-probe-first": lambda d: _edit_json(
        d / "metric_probe.json", _scale("lambda1", 4, 1.01)
    ),
    "metric-probe-second": lambda d: _edit_json(
        d / "metric_probe.json", _scale("lambda2", 4, 1.01)
    ),
    "weyl": lambda d: _edit_json(
        d / "weyl.json", lambda r: r.__setitem__("estimated_area", r["estimated_area"] * 1.001)
    ),
}


def test_good_artifacts_pass(artifacts):
    for command, (call, _) in CASES.items():
        assert oracles.check(call, artifacts[command]) == [], command


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_oracle_rejects_perturbed_artifact(artifacts, tmp_path, name):
    command = "metric-probe" if name.startswith("metric-probe") else name
    call, _ = CASES[command]
    broken = _copy(artifacts[command], tmp_path / "broken")
    PERTURBATIONS[name](broken)
    assert oracles.check(call, broken) != []


@pytest.mark.parametrize("command", sorted(CASES))
def test_oracle_rejects_non_finite_numbers(artifacts, tmp_path, command):
    call, _ = CASES[command]
    broken = _copy(artifacts[command], tmp_path / "broken")
    name = oracles.ARTIFACTS[command][0]
    text = (broken / name).read_text()
    if name.endswith(".csv"):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[-1] = "nan"
        lines[1] = ",".join(cells)
        (broken / name).write_text("\n".join(lines) + "\n")
    else:
        _edit_json(broken / name, lambda r: r.__setitem__("probe", float("inf")))
    assert any("non-finite" in p for p in oracles.check(call, broken))


def test_oracle_rejects_missing_artifact(artifacts, tmp_path):
    call, _ = CASES["convexity"]
    broken = _copy(artifacts["convexity"], tmp_path / "broken")
    (broken / "convexity.csv").unlink()
    assert oracles.check(call, broken) != []


def test_digest_ignores_only_wall_time(artifacts, tmp_path):
    command = "corrections"
    good = oracles.digest(command, artifacts[command])
    timed = _copy(artifacts[command], tmp_path / "timed")
    _edit_json(timed / "manifest.json", lambda m: m.__setitem__("wall_time_s", 123.0))
    assert oracles.digest(command, timed) == good
    changed = _copy(artifacts[command], tmp_path / "changed")
    _edit_json(changed / "corrections.json", _scale("lambda2", 2, 1.0 + 1e-15))
    assert oracles.digest(command, changed) != good


def test_nondeterministic_repeat_is_a_failure():
    a = run.CallResult("x", "spectrum", 1.0, 0, digest="a")
    b = run.CallResult("x", "spectrum", 1.0, 0, digest="b")
    c = run.CallResult("y", "spectrum", 1.0, 0, digest="c")
    d = run.CallResult("y", "spectrum", 1.0, 0, digest="c")
    run.mark_nondeterministic([[a, c], [b, d]])
    assert a.failed and b.failed
    assert not c.failed and not d.failed


# ---------------------------------------------------------------- spans


def test_self_time_arithmetic():
    tree = [
        spans.Span("cli.main", 0.0, 10.0),
        spans.Span("eigen.solve", 1.0, 4.0, parent=0),
        spans.Span("perturb.compute_corrections", 4.0, 9.0, parent=0),
        spans.Span("perturb.adapt", 4.5, 6.5, parent=2),
        spans.Span("eigen.solve", 7.0, 8.0, parent=2),
    ]
    times = spans.self_times(tree)
    assert times == pytest.approx(
        {"cli.main": 2.0, "eigen.solve": 4.0, "perturb.compute_corrections": 2.0, "perturb.adapt": 2.0}
    )
    assert sum(times.values()) == pytest.approx(10.0)
    [(total, layers)] = spans.per_root_layers(tree)
    assert total == 10.0
    assert layers == pytest.approx({"cli": 2.0, "eigen": 4.0, "perturb": 4.0})


def _all_sites():
    for table in (spans.SPANS, spans.COLUMNS):
        for name, sites in table.items():
            for site in sites:
                yield name, site


@pytest.mark.parametrize("name,site", list(_all_sites()))
def test_every_wrapped_site_exists(name, site):
    """A refactor that moves a function must move its site here too."""
    owner, attr, value = spans.resolve(site)
    assert callable(value)
    if "." not in site.split(":")[1]:
        # an import site must hold the function its home module defines
        home = importlib.import_module(value.__module__)
        assert getattr(home, value.__name__) is value


def test_every_import_site_of_a_wrapped_function_is_patched():
    import isospec

    wrapped = {}
    for _, site in _all_sites():
        owner, attr, value = spans.resolve(site)
        if isinstance(owner, type(isospec)):
            wrapped.setdefault(value, set()).add(site)
    for module_name in ("cli", "surface", "assembly", "eigen", "perturb", "experiments"):
        module = importlib.import_module(f"isospec.{module_name}")
        for attr, value in vars(module).items():
            if callable(value) and value in wrapped:
                assert f"isospec.{module_name}:{attr}" in wrapped[value], (module_name, attr)


def test_tracer_records_every_layer_and_restores(tmp_path):
    from isospec import perturb

    original = perturb.compute_corrections
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surface": {"kind": "torus", "nx": 8, "ny": 8}, "n_modes": 6, "f1": "0.2*cos(2*pi*x)"}))
    with spans.Tracer() as tracer:
        assert cli.main(["metric-probe", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert perturb.compute_corrections is original
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.load_config", "cli.write", "surface.field", "eigen.solve",
            "perturb.adapt", "experiments.metric_side_probe"} <= names
    assert tracer.counts["assembly.apply_h1.columns"] > 0
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert sum(tracer.self_times().values()) == pytest.approx(root.end - root.start)


def test_failed_spans_are_counted_by_layer():
    tracer = spans.Tracer()
    boom = tracer._spanned("perturb.adapt", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.failed_by_layer() == {"perturb": 1}
    assert tracer.counts["perturb.adapt.calls"] == 1


# ---------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in spec["workloads"]] == list(workloads.WHY.values())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["bench"]


def test_describe_reports_a_tail_only_with_ten_samples_beyond():
    assert run.top_percentile(10) is None
    assert run.top_percentile(20) == 50
    assert run.top_percentile(100) == 90
    assert "p50" in run.describe([float(i) for i in range(20)])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "small-batch", "--seconds", "1"]) == 2
    assert not os.path.exists(tmp_path / ".bench_run")
