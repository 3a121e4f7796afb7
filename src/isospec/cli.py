"""Command line front end: one experiment per invocation.

Each subcommand reads a JSON config, runs the selected pipeline, and
writes its artifacts plus a run manifest into the output directory.
Exit codes: 0 success, 2 config problem, 3 numerical failure.  Errors
are reported as a one-line JSON record on stderr.  The env var
ISOSPEC_LOG sets the logging level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, eigen
from .assembly import analytic_area, assemble_base, conformal_operators
from .errors import (
    ConfigError,
    DegenerateTriangleError,
    ExpressionError,
    GridTooSmallError,
    InsufficientModesError,
    IsospecError,
    MeshParseError,
    MeshTopologyError,
    ModeCountError,
)
from .experiments import (
    DEFAULT_KERNEL_TOL,
    convexity_probe,
    default_field_basis,
    metric_side_probe,
    obstruction_map,
    weyl_volume_estimate,
)
from .perturb import compute_corrections
from .selftest import run_selftest
from .surface import (
    ConformalPerturbation,
    PerturbationSide,
    field_from_expression,
    load_mesh,
    make_torus,
)

logger = logging.getLogger(__name__)

# raised by bad inputs rather than by the mathematics
_CONFIG_ERRORS = (
    ConfigError,
    ExpressionError,
    MeshParseError,
    MeshTopologyError,
    GridTooSmallError,
    DegenerateTriangleError,
    ModeCountError,
    InsufficientModesError,
)

_COMMON_KEYS = {"surface", "n_modes", "tol_deg", "seed"}
_EXTRA_KEYS = {
    "spectrum": set(),
    "corrections": {"side", "f1", "f2"},
    "obstruction": {"basis_size", "kernel_tol"},
    "convexity": {"c1", "c2", "tau_grid"},
    "metric-probe": {"f1", "t_grid"},
    "weyl": set(),
}
_DEFAULT_MODES = {
    "spectrum": 10,
    "corrections": 10,
    "obstruction": 10,
    "convexity": 8,
    "metric-probe": 10,
    "weyl": 100,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings for one run; flags already folded in."""

    command: str
    out_dir: str
    surface_spec: dict
    n_modes: int
    tol_deg: float = eigen.DEFAULT_TOL_DEG
    seed: int | None = None
    side: PerturbationSide = PerturbationSide.INVERSE_METRIC
    f1: str | None = None
    f2: str | None = None
    c1: str | None = None
    c2: str | None = None
    basis_size: int = 9
    kernel_tol: float = DEFAULT_KERNEL_TOL
    tau_grid: tuple = ()
    t_grid: tuple = ()
    raw: dict = field(default_factory=dict)

    def build_surface(self):
        spec = self.surface_spec
        if spec["kind"] == "torus":
            return make_torus(
                spec["nx"], spec["ny"], spec.get("lx", 1.0), spec.get("ly", 1.0)
            )
        return load_mesh(spec["path"])


def _expect(mapping, key, kinds, context, required=False, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    value = mapping[key]
    if kinds is float:
        if not _finite_number(value):
            raise ConfigError(f"{context}: key '{key}' must be a finite number")
        return value
    if kinds is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kinds)
    if not ok:
        raise ConfigError(f"{context}: key '{key}' has the wrong type")
    return value


def _finite_number(value):
    """Whether a JSON value is a number (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _validate_surface(spec):
    if not isinstance(spec, dict):
        raise ConfigError("'surface' must be an object")
    kind = _expect(spec, "kind", str, "surface", required=True)
    if kind == "torus":
        _reject_unknown(spec, {"kind", "nx", "ny", "lx", "ly"}, "surface")
        _expect(spec, "nx", int, "surface", required=True)
        _expect(spec, "ny", int, "surface", required=True)
        for key in ("lx", "ly"):
            extent = _expect(spec, key, float, "surface", default=1.0)
            if extent <= 0:
                raise ConfigError(f"surface: '{key}' must be positive")
    elif kind == "mesh":
        _reject_unknown(spec, {"kind", "path"}, "surface")
        path = _expect(spec, "path", str, "surface", required=True)
        if not os.path.isfile(path):
            raise ConfigError(f"surface: mesh file not found: {path}")
    else:
        raise ConfigError(f"surface: unknown kind '{kind}'")
    return spec


def _grid_values(data, key, context):
    raw = data.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: '{key}' must be a non-empty list")
    values = []
    for entry in raw:
        if not _finite_number(entry):
            raise ConfigError(f"{context}: '{key}' entries must be finite numbers")
        values.append(float(entry))
    return tuple(values)


def load_config(command, args):
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(data, _COMMON_KEYS | _EXTRA_KEYS[command], command)
    surface_spec = _validate_surface(
        _expect(data, "surface", dict, command, required=True)
    )

    n_modes = _expect(data, "n_modes", int, command, default=_DEFAULT_MODES[command])
    if args.modes is not None:
        n_modes = args.modes
    if n_modes < 1:
        raise ConfigError(f"{command}: n_modes must be at least 1")

    tol_deg = _expect(data, "tol_deg", float, command, default=eigen.DEFAULT_TOL_DEG)
    if not 1e-12 <= tol_deg <= 1e-2:
        raise ConfigError(f"{command}: tol_deg must lie in [1e-12, 1e-2]")

    seed = _expect(data, "seed", int, command)
    if args.seed is not None:
        seed = args.seed
    if seed is not None and seed < 0:
        raise ConfigError(f"{command}: seed must be non-negative")

    side = PerturbationSide.INVERSE_METRIC
    if command == "corrections":
        name = _expect(data, "side", str, command, default="inverse_metric")
        try:
            side = PerturbationSide(name)
        except ValueError:
            raise ConfigError(f"{command}: unknown side '{name}'") from None
        if side is PerturbationSide.METRIC and data.get("f2") is not None:
            raise ConfigError(f"{command}: metric side expansions stop at f1")

    config = ExperimentConfig(
        command=command,
        out_dir=args.out,
        surface_spec=surface_spec,
        n_modes=n_modes,
        tol_deg=tol_deg,
        seed=seed,
        side=side,
        f1=_expect(data, "f1", str, command, required=command in ("corrections", "metric-probe")),
        f2=_expect(data, "f2", str, command),
        c1=_expect(data, "c1", str, command, required=command == "convexity"),
        c2=_expect(data, "c2", str, command, required=command == "convexity"),
        basis_size=_expect(data, "basis_size", int, command, default=9),
        kernel_tol=_expect(
            data, "kernel_tol", float, command, default=DEFAULT_KERNEL_TOL
        ),
        tau_grid=_grid_values(data, "tau_grid", command)
        or (0.0, 0.25, 0.5, 0.75, 1.0),
        t_grid=_grid_values(data, "t_grid", command) or (1e-3, -1e-3, 5e-3),
        raw=data,
    )
    if config.basis_size < 1:
        raise ConfigError(f"{command}: basis_size must be at least 1")
    # a relative threshold at or above 1 puts every singular value in the kernel
    if not 0.0 < config.kernel_tol < 1.0:
        raise ConfigError(f"{command}: kernel_tol must lie in (0, 1)")
    if not all(0.0 <= tau <= 1.0 for tau in config.tau_grid):
        raise ConfigError(f"{command}: tau_grid entries must lie in [0, 1]")
    return config


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _effective_config(config):
    echo = dict(config.raw)
    echo["n_modes"] = config.n_modes
    if config.seed is not None:
        echo["seed"] = config.seed
    return echo


def _write_manifest(config, artifacts, wall_time):
    payload = {
        "schema_version": 1,
        "command": config.command,
        "config": _effective_config(config),
        "versions": {
            "isospec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seed": config.seed,
        "wall_time_s": wall_time,
        "artifacts": sorted(artifacts),
    }
    _write_json(os.path.join(config.out_dir, "manifest.json"), payload)


def run_spectrum(config):
    pair = assemble_base(config.build_surface())
    spectral = eigen.solve(pair, min(config.n_modes, pair.node_count), config.tol_deg)
    spectral.export_csv(os.path.join(config.out_dir, "spectrum.csv"))
    return ["spectrum.csv"]


def run_corrections(config):
    surface = config.build_surface()
    pair = assemble_base(surface)
    f1 = field_from_expression(surface, config.f1)
    f2 = field_from_expression(surface, config.f2) if config.f2 else None
    pert = ConformalPerturbation(side=config.side, f1=f1, f2=f2)
    ops = conformal_operators(pair, pert)
    n_modes = min(config.n_modes, pair.node_count)
    report = compute_corrections(eigen.solve_window(pair, n_modes, config.tol_deg), ops)
    _write_json(
        os.path.join(config.out_dir, "corrections.json"), report.to_json_dict()
    )
    return ["corrections.json"]


def run_obstruction(config):
    surface = config.build_surface()
    if config.basis_size > surface.node_count:
        n = surface.node_count
        raise ConfigError(f"obstruction: basis_size exceeds the {n} surface nodes")
    pair = assemble_base(surface)
    # the map is basis-independent only over complete degeneracy groups
    spectral = eigen.solve_window(pair, config.n_modes, config.tol_deg)
    basis = default_field_basis(surface, config.basis_size, spectral=spectral)
    report = obstruction_map(
        spectral, basis, spectral.n_modes, kernel_tol=config.kernel_tol
    )
    _write_json(
        os.path.join(config.out_dir, "obstruction.json"), report.to_json_dict()
    )
    return ["obstruction.json"]


def run_convexity(config):
    surface = config.build_surface()
    c1 = field_from_expression(surface, config.c1)
    c2 = field_from_expression(surface, config.c2)
    report = convexity_probe(
        surface, c1, c2, config.n_modes, np.array(config.tau_grid), config.tol_deg
    )
    _write_json(os.path.join(config.out_dir, "convexity.json"), report.to_json_dict())
    report.export_csv(os.path.join(config.out_dir, "convexity.csv"))
    return ["convexity.json", "convexity.csv"]


def run_metric_probe(config):
    surface = config.build_surface()
    f1 = field_from_expression(surface, config.f1)
    report = metric_side_probe(
        surface, f1, config.n_modes, np.array(config.t_grid), config.tol_deg
    )
    _write_json(
        os.path.join(config.out_dir, "metric_probe.json"), report.to_json_dict()
    )
    report.export_csv(os.path.join(config.out_dir, "metric_probe.csv"))
    return ["metric_probe.json", "metric_probe.csv"]


def run_weyl(config):
    surface = config.build_surface()
    pair = assemble_base(surface)
    spectral = eigen.solve(pair, min(config.n_modes, pair.node_count), config.tol_deg)
    estimate = weyl_volume_estimate(spectral)
    payload = {
        "schema_version": 1,
        "n_modes": spectral.n_modes,
        "estimated_area": estimate,
        "analytic_area": analytic_area(surface),
    }
    _write_json(os.path.join(config.out_dir, "weyl.json"), payload)
    return ["weyl.json"]


_RUNNERS = {
    "spectrum": run_spectrum,
    "corrections": run_corrections,
    "obstruction": run_obstruction,
    "convexity": run_convexity,
    "metric-probe": run_metric_probe,
    "weyl": run_weyl,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isospec",
        description="spectral perturbation experiments on discrete surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--modes", type=int, default=None, help="override n_modes")
        cmd.add_argument("--seed", type=int, default=None, help="override seed")
    self_cmd = sub.add_parser("selftest", help="run the reduced acceptance checks")
    self_cmd.add_argument("--seed", type=int, default=0, help="check seed")
    return parser


def _configure_logging():
    level_name = os.environ.get("ISOSPEC_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _report_error(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest(seed=args.seed)
    try:
        config = load_config(args.command, args)
        os.makedirs(config.out_dir, exist_ok=True)
        started = time.monotonic()
        artifacts = _RUNNERS[args.command](config)
        _write_manifest(config, artifacts, time.monotonic() - started)
    except _CONFIG_ERRORS as exc:
        logger.debug("config failure", exc_info=True)
        _report_error(exc)
        return 2
    except IsospecError as exc:
        logger.debug("numerical failure", exc_info=True)
        _report_error(exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
