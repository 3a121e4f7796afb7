"""Spans around calls into each isospec layer, recorded from outside.

The tracer patches the public functions of each module at every place
the program looks them up: a function imported by name into another
module (``from .perturb import compute_corrections`` in ``cli`` and
``experiments``) is patched there too, while calls inside a module go
through its globals.  Spans nest, so a layer's self time is its span
time minus the time of the spans it caused.  Spans stay in memory until
the pass ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# span name -> import sites, "module:attr" or "module:Class.method"
SPANS = {
    "cli.main": ("isospec.cli:main",),
    "cli.load_config": ("isospec.cli:load_config",),
    "cli.write": (
        "isospec.cli:_write_json",
        "isospec.eigen:SpectralData.export_csv",
        "isospec.experiments:ConvexityProbeReport.export_csv",
        "isospec.experiments:MetricProbeReport.export_csv",
    ),
    "surface.load_mesh": ("isospec.surface:load_mesh", "isospec.cli:load_mesh"),
    "surface.field": (
        "isospec.surface:field_from_expression",
        "isospec.cli:field_from_expression",
    ),
    "assembly.assemble_base": (
        "isospec.assembly:assemble_base",
        "isospec.cli:assemble_base",
        "isospec.experiments:assemble_base",
    ),
    "assembly.exact_pair": (
        "isospec.assembly:exact_perturbed_pair",
        "isospec.experiments:exact_perturbed_pair",
    ),
    "eigen.solve": ("isospec.eigen:solve",),
    "perturb.compute_corrections": (
        "isospec.perturb:compute_corrections",
        "isospec.cli:compute_corrections",
        "isospec.experiments:compute_corrections",
    ),
    "perturb.adapt": ("isospec.perturb:adapt_degenerate_basis",),
    "perturb.first_order": ("isospec.perturb:first_order",),
    "perturb.second_order": ("isospec.perturb:second_order",),
    "perturb.matrix_elements": ("isospec.perturb:matrix_elements",),
    "experiments.metric_side_probe": (
        "isospec.experiments:metric_side_probe",
        "isospec.cli:metric_side_probe",
    ),
    "experiments.convexity_probe": (
        "isospec.experiments:convexity_probe",
        "isospec.cli:convexity_probe",
    ),
    "experiments.obstruction_map": (
        "isospec.experiments:obstruction_map",
        "isospec.cli:obstruction_map",
    ),
    "experiments.default_field_basis": (
        "isospec.experiments:default_field_basis",
        "isospec.cli:default_field_basis",
    ),
    "experiments.weyl": (
        "isospec.experiments:weyl_volume_estimate",
        "isospec.cli:weyl_volume_estimate",
    ),
}

# counter name -> sites; counts the column vectors pushed through, no span
COLUMNS = {
    "assembly.apply_h1.columns": ("isospec.assembly:PerturbationOperators.apply_h1",),
    "assembly.apply_h1_adjoint.columns": (
        "isospec.assembly:PerturbationOperators.apply_h1_adjoint",
    ),
    "assembly.apply_h2.columns": ("isospec.assembly:PerturbationOperators.apply_h2",),
}

LAYERS = ("cli", "surface", "assembly", "eigen", "perturb", "experiments")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False


def resolve(site):
    """(owner, attribute, current value) of a "module:path" site."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _self_time(spans):
    """Each span's duration minus the durations of its children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def self_times(spans):
    """Total self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, _self_time(spans)):
        totals[span.name] += own
    return dict(totals)


def per_root_layers(spans):
    """(duration, self time per layer) of each top-level span, in order."""
    rows, row_of = [], []
    for span, own in zip(spans, _self_time(spans)):
        if span.parent is None:
            row_of.append(len(rows))
            rows.append((span.end - span.start, defaultdict(float)))
        else:
            row_of.append(row_of[span.parent])
        rows[row_of[-1]][1][span.name.split(".")[0]] += own
    return rows


def _columns(v):
    return 1 if v.ndim == 1 else v.shape[1]


class Tracer:
    """Context manager that patches every site in SPANS and COLUMNS.

    ``spans`` lists closed and open spans in start order; ``counts`` holds
    the column counters, a ``.calls`` count per span name, failed calls
    included, and the counters ``_on_exit`` takes from successful calls.
    ``missing`` names the sites that no longer exist, which are skipped.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        for name, sites in SPANS.items():
            for site in sites:
                self._patch(site, lambda fn, name=name: self._spanned(name, fn))
        for name, sites in COLUMNS.items():
            for site in sites:
                self._patch(site, lambda fn, name=name: self._counted(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, site, make):
        try:
            owner, attr, original = resolve(site)
        except (ImportError, AttributeError):
            self.missing.append(site)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(ops, v, *args, **kwargs):
            counts[name] += _columns(v)
            return fn(ops, v, *args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            self.counts[f"{name}.calls"] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._on_exit(name, args, kwargs, result)
            return result

        return wrapper

    def _inside(self, name):
        return any(self.spans[i].name == name for i in self._stack)

    def _on_exit(self, name, args, kwargs, result):
        counts = self.counts
        if name == "eigen.solve":
            pair, n_modes = args[0], args[1] if len(args) > 1 else kwargs["n_modes"]
            n = pair.node_count
            counts["eigen.solve.modes"] += n_modes
            counts["eigen.solve.full_calls"] += int(n_modes == n)
            counts["eigen.dense_bytes.max"] = max(counts["eigen.dense_bytes.max"], 8 * n * n)
            if self._inside("experiments.convexity_probe"):
                counts["convexity.solves"] += 1
        elif name == "perturb.adapt":
            counts["perturb.adapted_groups"] += len(result.basis_rotations)
        elif name == "experiments.convexity_probe":
            taus = args[4] if len(args) > 4 else kwargs["tau_grid"]
            counts["convexity.taus"] += len(taus)

    def self_times(self):
        return self_times(self.spans)

    def failed_by_layer(self):
        failed = Counter()
        for span in self.spans:
            if span.failed:
                failed[span.name.split(".")[0]] += 1
        return failed
