"""Seeded inputs and call lists for the benchmark workloads.

A workload is a list of real ``isospec`` CLI calls.  ``generate`` writes
the configs and OFF meshes a workload needs into one directory and
returns the calls.  The seed draws the low-frequency Fourier
coefficients of every field expression and a vertex relabelling of each
icosphere; the program sees only the files.  The same seed gives
byte-identical files, and config paths are relative to that directory,
so the CLI runs with it as the working directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# why each workload exists; BENCHMARK.json carries the same lines
WHY = {
    "perturb-torus48": (
        "corrections and metric-probe for three seeded fields on the 48x48 torus: "
        "dense full solves and full-basis perturbation sums, where the solver work acts"
    ),
    "spectral-ico4": (
        "few-mode solves, cotangent assembly and OFF parsing on every call on "
        "the level-4 icosphere; corrections shows the known breakdown"
    ),
    "small-batch": (
        "all six subcommands on the 24x24 torus and level-3 icosphere: setup "
        "dominates and dense solves are right; must not regress"
    ),
}

COMMANDS = ("spectrum", "corrections", "obstruction", "convexity", "metric-probe", "weyl")

# one representative per +- pair of low wave vectors
_TORUS_WAVES = ((0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 0), (1, 2), (2, 1), (1, -2), (2, -1))
_SPHERE_WAVES = tuple(
    (a, b, c)
    for a in (-1, 0, 1)
    for b in (-1, 0, 1)
    for c in (-1, 0, 1)
    if (a, b, c) > (0, 0, 0)
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``isospec <command> --config <config>``.

    ``surface`` is ``("torus", nx)`` or ``("ico", level)``; the oracles
    read it.  ``label`` is unique within a workload.
    """

    label: str
    command: str
    config: str
    surface: tuple
    n_modes: int


def fourier_expression(rng, waves, amplitude):
    """Sum of cos/sin of 2*pi*(k . r) with seeded coefficients, max |f| <= amplitude."""
    coeffs = rng.uniform(-1.0, 1.0, size=(len(waves), 2))
    coeffs *= amplitude / np.abs(coeffs).sum()
    names = ("x", "y", "z")
    terms = []
    for k, (a, b) in zip(waves, coeffs):
        phase = " + ".join(f"{kc}*{names[i]}" for i, kc in enumerate(k) if kc)
        terms.append(f"{a:.6f}*cos(2*pi*({phase}))")
        terms.append(f"{b:.6f}*sin(2*pi*({phase}))")
    return " + ".join(terms)


def _icosphere_arrays(level):
    # the builder may move from selftest into surface; accept either home
    from isospec import selftest, surface

    build = getattr(surface, "icosphere_arrays", None) or selftest.icosphere_arrays
    return build(level)


def relabelled_icosphere(level, rng):
    """Icosphere arrays with a seeded vertex relabelling (orientation kept)."""
    vertices, faces = _icosphere_arrays(level)
    order = rng.permutation(vertices.shape[0])
    new_index = np.empty_like(order)
    new_index[order] = np.arange(order.shape[0])
    return vertices[order], new_index[faces]


def off_text(vertices, faces):
    lines = ["OFF", f"{vertices.shape[0]} {faces.shape[0]} 0"]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in vertices.tolist())
    lines.extend(f"3 {a} {b} {c}" for a, b, c in faces.tolist())
    return "\n".join(lines) + "\n"


class _Writer:
    def __init__(self, directory, rng, seed):
        self.directory = directory
        self.rng = rng
        self.seed = seed
        self.calls_made = []

    def _write(self, name, text):
        with open(os.path.join(self.directory, name), "w") as fh:
            fh.write(text)

    def surface(self, kind, size):
        if kind == "torus":
            return {"kind": "torus", "nx": size, "ny": size}
        name = f"ico{size}.off"
        self._write(name, off_text(*relabelled_icosphere(size, self.rng)))
        return {"kind": "mesh", "path": name}

    def field(self, kind, amplitude):
        waves = _TORUS_WAVES if kind == "torus" else _SPHERE_WAVES
        return fourier_expression(self.rng, waves, amplitude)

    def add(self, command, kind, size, spec, n_modes, tag="", **extra):
        label = f"{kind}{size}-{command}{tag}"
        config = {"surface": spec, "n_modes": n_modes, "seed": self.seed, **extra}
        name = f"{label}.json"
        self._write(name, json.dumps(config, indent=2, sort_keys=True) + "\n")
        self.calls_made.append(Call(label, command, name, (kind, size), n_modes))

    def calls(self, kind, size, spec, commands, tag=""):
        """Calls of the given subcommands on one surface, in COMMANDS order."""
        for command in COMMANDS:
            if command not in commands:
                continue
            if command == "spectrum":
                self.add(command, kind, size, spec, 20, tag)
            elif command == "corrections":
                self.add(
                    command, kind, size, spec, 10, tag,
                    f1=self.field(kind, 0.5), f2=self.field(kind, 0.2),
                )
            elif command == "obstruction":
                self.add(command, kind, size, spec, 10, tag, basis_size=9)
            elif command == "convexity":
                self.add(
                    command, kind, size, spec, 8, tag,
                    c1="1 + " + self.field(kind, 0.4),
                    c2="1 + " + self.field(kind, 0.4),
                    tau_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                )
            elif command == "metric-probe":
                # the oracle holds fd_lambda2 at the CLI's step 1e-3 to 1e-3 of
                # lambda2; at amplitude 0.5 the O(h^2) truncation alone reaches
                # 1.5e-3 on ico3 (seed 3), so the field stays at 0.2
                self.add(command, kind, size, spec, 10, tag, f1=self.field(kind, 0.2))
            elif command == "weyl":
                self.add(command, kind, size, spec, 200, tag)


def generate(workload, seed, directory):
    """Write the workload's inputs into ``directory``; return its calls."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    writer = _Writer(directory, np.random.default_rng(seed), seed)
    if workload == "perturb-torus48":
        # The adaptation check breaks down on about a quarter of the fields
        # drawn here (group 145), and a failed metric-probe exits in half
        # its time; with two fields per pass the pass time still spread 20%
        # over seeds 1-10, so three fields keep one failure from deciding a run.
        spec = writer.surface("torus", 48)
        for tag in ("-a", "-b", "-c"):
            writer.calls("torus", 48, spec, {"corrections", "metric-probe"}, tag)
    elif workload == "spectral-ico4":
        spec = writer.surface("ico", 4)
        writer.calls("ico", 4, spec, {"spectrum", "obstruction", "convexity", "weyl", "corrections"})
    else:
        for kind, size in (("torus", 24), ("ico", 3)):
            writer.calls(kind, size, writer.surface(kind, size), COMMANDS)
    return writer.calls_made
