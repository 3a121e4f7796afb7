"""Per-call artifact checks.

``check(call, out_dir)`` returns a list of problems, empty when every
artifact of a successful call passes.  The oracles are the paper's own
identities at the tolerances the test suite pins:

* torus spectra and ``lambda0`` against the closed-form 5-point symbol,
  scaled gap <= 1e-10 (acceptance criterion 1);
* metric-probe finite differences against the perturbative corrections:
  ``|fd_lambda1 - lambda1| <= 1e-5 (1 + max |lambda0|)`` (the metric-probe
  tests) and a scaled gap of ``fd_lambda2`` to ``lambda2`` <= 1e-3 above the
  ground mode (criterion 3, same step 1e-3);
* the torus Weyl area equal, to 1e-10 relative, to the counting fit of
  the closed-form symbol.  Criterion 10's 15% bound on the true area holds
  for 100 of 2304 modes; at 200 of 576 modes the exact symbol itself fits
  an area about 24% high, so that bound does not apply there;
* every number in every artifact finite.

``digest`` gives the bytes that must repeat exactly across repeats of one
seed: every artifact, with the manifest's ``wall_time_s`` removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

SYMBOL_TOL = 1e-10
FD1_TOL = 1e-5
FD2_TOL = 1e-3
WEYL_TOL = 1e-10

ARTIFACTS = {
    "spectrum": ("spectrum.csv",),
    "corrections": ("corrections.json",),
    "obstruction": ("obstruction.json",),
    "convexity": ("convexity.json", "convexity.csv"),
    "metric-probe": ("metric_probe.json", "metric_probe.csv"),
    "weyl": ("weyl.json",),
}


def torus_symbol(nx, n_modes):
    """Lowest eigenvalues of the 5-point Laplacian on the unit nx x nx torus."""
    h = 1.0 / nx
    wave = (2.0 / h**2) * (1.0 - np.cos(2.0 * np.pi * np.arange(nx) * h))
    return np.sort((wave[:, None] + wave[None, :]).ravel())[:n_modes]


def scaled_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / (1.0 + np.abs(b))


def _nonfinite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_nonfinite(v) for v in value)
    return False


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _symbol_problem(label, values, nx):
    values = np.asarray(values, dtype=float)
    gap = scaled_gap(values, torus_symbol(nx, values.shape[0]))
    if gap.max() > SYMBOL_TOL:
        return [f"{label} off the 5-point symbol by {gap.max():.3e}"]
    return []


def _check_spectrum(call, data):
    _, rows = data["spectrum.csv"]
    values = [row[1] for row in rows]
    problems = []
    if len(rows) != call.n_modes:
        problems.append(f"spectrum has {len(rows)} rows, expected {call.n_modes}")
    if call.surface[0] == "torus":
        problems += _symbol_problem("spectrum", values, call.surface[1])
    return problems


def _check_corrections(call, data):
    report = data["corrections.json"]
    n = report["n_modes"]
    problems = []
    if n < call.n_modes:
        problems.append(f"corrections reports {n} modes, asked {call.n_modes}")
    for key in ("lambda0", "lambda1", "lambda2"):
        if len(report[key]) != n:
            problems.append(f"corrections {key} has {len(report[key])} entries")
    if call.surface[0] == "torus":
        problems += _symbol_problem("corrections lambda0", report["lambda0"], call.surface[1])
    return problems


def _check_metric_probe(call, data):
    report = data["metric_probe.json"]
    lam0 = np.asarray(report["lambda0"])
    if "fd_lambda1" not in report:
        return ["metric-probe wrote no finite differences"]
    fd1 = np.asarray(report["fd_lambda1"])
    fd2 = np.asarray(report["fd_lambda2"])
    lam1 = np.asarray(report["lambda1"])
    lam2 = np.asarray(report["lambda2"])
    problems = []
    err1 = np.abs(fd1 - lam1).max()
    if err1 > FD1_TOL * (1.0 + np.abs(lam0).max()):
        problems.append(f"metric-probe fd_lambda1 off lambda1 by {err1:.3e}")
    err2 = scaled_gap(fd2[1:], lam2[1:]).max()
    if err2 > FD2_TOL:
        problems.append(f"metric-probe fd_lambda2 off lambda2 by {err2:.3e} scaled")
    if call.surface[0] == "torus":
        problems += _symbol_problem("metric-probe lambda0", lam0, call.surface[1])
    return problems


def _check_obstruction(call, data):
    report = data["obstruction.json"]
    sigma = np.asarray(report["singular_values"])
    problems = []
    if np.any(sigma < 0.0) or np.any(np.diff(sigma) > 0.0):
        problems.append("obstruction singular values not descending and nonnegative")
    if not 0 <= report["kernel_dim"] <= report["field_dim"]:
        problems.append(f"obstruction kernel_dim {report['kernel_dim']} out of range")
    return problems


def _check_convexity(call, data):
    report = data["convexity.json"]
    _, rows = data["convexity.csv"]
    taus = report["tau_grid"]
    problems = []
    if len(rows) != len(taus) * call.n_modes:
        problems.append(f"convexity.csv has {len(rows)} rows")
    for tau, dist in zip(taus, report["spectral_distances"]):
        if dist < 0.0 or (tau == 0.0 and dist != 0.0):
            problems.append(f"convexity distance {dist!r} at tau={tau!r}")
    return problems


def weyl_fit(values):
    """Area from N(lambda) ~ (A / 4 pi) lambda, least squares through 0."""
    counts = np.arange(1, len(values) + 1, dtype=float)
    return float(4.0 * np.pi * np.sum(counts * values) / np.sum(values * values))


def _check_weyl(call, data):
    report = data["weyl.json"]
    if call.surface[0] != "torus":
        return []
    expected = weyl_fit(torus_symbol(call.surface[1], call.n_modes))
    if abs(report["estimated_area"] - expected) > WEYL_TOL * expected:
        return [f"weyl area {report['estimated_area']!r}, symbol fit {expected!r}"]
    return []


_CHECKS = {
    "spectrum": _check_spectrum,
    "corrections": _check_corrections,
    "obstruction": _check_obstruction,
    "convexity": _check_convexity,
    "metric-probe": _check_metric_probe,
    "weyl": _check_weyl,
}


def load(command, out_dir):
    """Parsed artifacts of one call, keyed by file name."""
    data = {}
    for name in ARTIFACTS[command] + ("manifest.json",):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            data[name] = _read_csv(path)
        else:
            with open(path) as fh:
                data[name] = json.load(fh)
    return data


def check(call, out_dir):
    """Problems with the artifacts of a call that exited 0; [] if none."""
    try:
        data = load(call.command, out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable artifact: {exc}"]
    problems = [f"{name} holds a non-finite number" for name, value in data.items() if _nonfinite(value)]
    manifest = data["manifest.json"]
    if manifest.get("artifacts") != sorted(ARTIFACTS[call.command]):
        problems.append(f"manifest lists {manifest.get('artifacts')}")
    try:
        problems += _CHECKS[call.command](call, data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed artifact: {exc!r}")
    return problems


def digest(command, out_dir):
    """Hash of the call's artifacts that must repeat bit for bit."""
    h = hashlib.sha256()
    for name in ARTIFACTS[command]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    manifest.pop("wall_time_s", None)
    h.update(json.dumps(manifest, sort_keys=True).encode())
    return h.hexdigest()


def artifact_bytes(out_dir):
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def modes_written(command, out_dir):
    """Eigenvalue entries the call's artifacts report."""
    data = load(command, out_dir)
    if command == "spectrum":
        return len(data["spectrum.csv"][1])
    if command == "convexity":
        return len(data["convexity.csv"][1])
    name = ARTIFACTS[command][0]
    return int(data[name]["n_modes"])
