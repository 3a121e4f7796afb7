"""Command line front end: one experiment per invocation.

Each subcommand reads a JSON config, runs the selected pipeline, and
writes its artifacts plus a run manifest into the output directory.
Exit codes: 0 success, 2 bad input (an InputError), 3 numerical failure
(any other IsospecError, or running out of memory).  Errors are reported
as a one-line JSON record on stderr.  The env var ISOSPEC_LOG sets the
logging level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__, eigen
from .assembly import assemble_base, conformal_operators
from .errors import ConfigError, InputError, InsufficientModesError, IsospecError
from .experiments import (
    DEFAULT_KERNEL_TOL,
    WEYL_MIN_MODES,
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


def _expect(mapping, key, kinds, context, required=False, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}: missing required key '{key}'")
        return default
    value = mapping[key]
    if kinds is float:
        if not _finite_number(value):
            raise ConfigError(f"{context}: key '{key}' must be a finite number")
    elif kinds is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{context}: '{key}' must be a non-empty list")
        if not all(map(_finite_number, value)):
            raise ConfigError(f"{context}: '{key}' entries must be finite numbers")
    elif not isinstance(value, kinds) or (kinds is int and isinstance(value, bool)):
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


REQUIRED = object()  # the default of a key that the config must give

_SIDES = {side.value for side in PerturbationSide}

# key -> (JSON type, range check or None, message for a value out of range);
# the surface object is read by the same rules, with the keys of its kind
_KEY_RULES = {
    "surface": (dict, None, None),
    "kind": (str, None, None),
    "nx": (int, None, None),
    "ny": (int, None, None),
    "lx": (float, None, None),
    "ly": (float, None, None),
    "path": (str, os.path.isfile, "mesh file not found: {}"),
    "n_modes": (int, lambda n: n >= 1, "n_modes must be at least 1"),
    "tol_deg": (float, lambda tol: 1e-12 <= tol <= 1e-2, "tol_deg must lie in [1e-12, 1e-2]"),
    "seed": (int, lambda seed: seed >= 0, "seed must be non-negative"),
    "side": (str, lambda name: name in _SIDES, "unknown side '{}'"),
    "f1": (str, None, None),
    "f2": (str, None, None),
    "c1": (str, None, None),
    "c2": (str, None, None),
    "basis_size": (int, lambda size: size >= 1, "basis_size must be at least 1"),
    # a relative threshold at or above 1 puts every singular value in the kernel
    "kernel_tol": (float, lambda tol: 0.0 < tol < 1.0, "kernel_tol must lie in (0, 1)"),
    "tau_grid": (
        list, lambda taus: all(0.0 <= tau <= 1.0 for tau in taus),
        "tau_grid entries must lie in [0, 1]",
    ),
    "t_grid": (list, None, None),
}

# surface kind -> its keys with their defaults; every key but kind is an
# argument of its builder, make_torus or load_mesh, which checks the values
_SURFACE_KEYS = {
    "torus": {"kind": REQUIRED, "nx": REQUIRED, "ny": REQUIRED, "lx": 1.0, "ly": 1.0},
    "mesh": {"kind": REQUIRED, "path": REQUIRED},
}


def _read(data, keys, context, flags):
    """The keys of data as their rules allow, given or at their default
    (REQUIRED if data must give the key), with the flags that are not None
    folded in; a key with no value is left out."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    config = {}
    for key, default in keys.items():
        kinds, in_range, message = _KEY_RULES[key]
        required = default is REQUIRED
        value = _expect(data, key, kinds, context, required=required, default=default)
        if flags.get(key) is not None:
            value = flags[key]
        if value is None:
            continue
        if in_range is not None and not in_range(value):
            raise ConfigError(f"{context}: " + message.format(value))
        if key == "surface":
            kind = _expect(value, "kind", str, key, required=True)
            if kind not in _SURFACE_KEYS:
                raise ConfigError(f"surface: unknown kind '{kind}'")
            value = _read(value, _SURFACE_KEYS[kind], key, {})
        config[key] = value
    return config


def load_config(command, args):
    """(config, surface, fields) of a run, or an InputError before any output:
    the effective config with --modes and --seed folded in and n_modes
    clamped to the node count, the surface it names, and the ScalarField of
    each expression key on that surface (an empty f2 is no field)."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    flags = {"n_modes": args.modes, "seed": args.seed}
    config = _read(data, _SUBCOMMANDS[command].config_keys, command, flags)
    if config.get("side") == PerturbationSide.METRIC.value and config.get("f2"):
        raise ConfigError(f"{command}: metric side expansions stop at f1")
    spec = dict(config["surface"])
    # builders by name at each call, so wrappers set on this module (bench/spans.py) see them
    surface = (make_torus if spec.pop("kind") == "torus" else load_mesh)(**spec)
    n = surface.node_count
    if config.get("basis_size", 0) > n:
        raise ConfigError(f"{command}: basis_size exceeds the {n} surface nodes")
    config["n_modes"] = min(config["n_modes"], n)
    if command == "weyl" and config["n_modes"] < WEYL_MIN_MODES:
        raise InsufficientModesError(
            f"Weyl fit needs at least {WEYL_MIN_MODES} modes, got {config['n_modes']}"
        )
    fields = {
        key: field_from_expression(surface, config[key])
        for key in ("f1", "f2", "c1", "c2")
        if key in config and (config[key] or key != "f2")
    }
    return config, surface, fields


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(command, config, out_dir, artifacts, wall_time):
    payload = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "versions": {
            "isospec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seed": config.get("seed"),
        "wall_time_s": wall_time,
        "artifacts": sorted(artifacts),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def run_spectrum(config, surface, fields):
    spectral = eigen.solve(assemble_base(surface), config["n_modes"], config["tol_deg"])
    return {"spectrum.csv": spectral}


def run_corrections(config, surface, fields):
    pair = assemble_base(surface)
    side = PerturbationSide(config["side"])
    pert = ConformalPerturbation(side, fields["f1"], fields.get("f2"))
    ops = conformal_operators(pair, pert)
    spectral = eigen.solve_window(pair, config["n_modes"], config["tol_deg"])
    report = compute_corrections(spectral, ops)
    return {"corrections.json": report.to_json_dict()}


def run_obstruction(config, surface, fields):
    # the map is basis-independent only over complete degeneracy groups
    spectral = eigen.solve_window(assemble_base(surface), config["n_modes"], config["tol_deg"])
    basis = default_field_basis(surface, config["basis_size"], spectral)
    report = obstruction_map(
        spectral, basis, spectral.n_modes, kernel_tol=config["kernel_tol"]
    )
    return {"obstruction.json": report.to_json_dict()}


def run_convexity(config, surface, fields):
    report = convexity_probe(
        surface, fields["c1"], fields["c2"], config["n_modes"], config["tau_grid"],
        config["tol_deg"],
    )
    return {"convexity.json": report.to_json_dict(), "convexity.csv": report}


def run_metric_probe(config, surface, fields):
    report = metric_side_probe(
        surface, fields["f1"], config["n_modes"], config["t_grid"], config["tol_deg"]
    )
    return {"metric_probe.json": report.to_json_dict(), "metric_probe.csv": report}


def run_weyl(config, surface, fields):
    spectral = eigen.solve(assemble_base(surface), config["n_modes"], config["tol_deg"])
    return {"weyl.json": {
        "schema_version": 1,
        "n_modes": spectral.n_modes,
        "estimated_area": weyl_volume_estimate(spectral),
        "analytic_area": surface.area,
    }}


class Subcommand(NamedTuple):
    """A runner (config, surface, fields) -> {file name: artifact} on the
    inputs from load_config, where a .json artifact is its payload and a
    .csv one has ``export_csv``; the extra config keys with their defaults
    (REQUIRED if the config must give the key, None if it has no value);
    and the default n_modes."""

    run: Callable
    keys: dict
    default_modes: int

    @property
    def config_keys(self):
        """Every config key of the subcommand, common ones first, with its default."""
        return {
            "surface": REQUIRED,
            "n_modes": self.default_modes,
            "tol_deg": eigen.DEFAULT_TOL_DEG,
            "seed": None,
            **self.keys,
        }


_SUBCOMMANDS = {
    "spectrum": Subcommand(run_spectrum, {}, 10),
    "corrections": Subcommand(
        run_corrections,
        {"side": PerturbationSide.INVERSE_METRIC.value, "f1": REQUIRED, "f2": None},
        10,
    ),
    "obstruction": Subcommand(
        run_obstruction, {"basis_size": 9, "kernel_tol": DEFAULT_KERNEL_TOL}, 10
    ),
    "convexity": Subcommand(
        run_convexity,
        {"c1": REQUIRED, "c2": REQUIRED, "tau_grid": (0.0, 0.25, 0.5, 0.75, 1.0)},
        8,
    ),
    "metric-probe": Subcommand(
        run_metric_probe, {"f1": REQUIRED, "t_grid": (1e-3, -1e-3, 5e-3)}, 10
    ),
    "weyl": Subcommand(run_weyl, {}, 100),
}


def run_command(command, config, surface, fields, out_dir):
    """Run the subcommand on its inputs from load_config and write its
    artifacts; returns their file names."""
    artifacts = _SUBCOMMANDS[command].run(config, surface, fields)
    for name, artifact in artifacts.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            artifact.export_csv(path)
        else:
            _write_json(path, artifact)
    return sorted(artifacts)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isospec",
        description="spectral perturbation experiments on discrete surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
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


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def _report_error(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest(seed=args.seed)
    try:
        config, surface, fields = load_config(args.command, args)
        _make_out_dir(args.out)
        started = time.monotonic()
        artifacts = run_command(args.command, config, surface, fields, args.out)
        _write_manifest(args.command, config, args.out, artifacts, time.monotonic() - started)
    except (IsospecError, MemoryError) as exc:
        code = 2 if isinstance(exc, InputError) else 3
        logger.debug("run failed with exit code %d", code, exc_info=True)
        _report_error(exc)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
