"""Spans recorded from outside the program, and the per-layer metrics they give.

The benchmark does not instrument ``src/``. :class:`Tracer` replaces the
public functions of each layer with wrappers that open a span around the
call, and puts the originals back afterwards. ``dispersim.cli`` binds its
imports at import time, so every ``dispersim`` module attribute bound to a
wrapped function is replaced, not only the defining one.

Work counts (bin-steps, rows, groups, ...) are computed by the wrappers from
each call's arguments and return value, never read from the program's own
diagnostics.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One call: name, start and end (perf_counter s), parent index, invocation id."""

    name: str
    start: float
    end: float
    parent: int | None
    invocation: str
    counts: dict = field(default_factory=dict)


#: Span the benchmark opens around each call of ``cli.main``.
ROOT_SPAN = "invocation"


# --- work counters: (args, kwargs, result, exception) -> {count: value} ------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_bytes_written(args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    return {} if exc else {"bytes_written": os.path.getsize(path)}


def _count_kinetic(args, kwargs, result, exc):
    initial = _arg(args, kwargs, 0, "initial")
    dt = _arg(args, kwargs, 2, "dt")
    horizon = _arg(args, kwargs, 3, "horizon")
    counts = {"bin_steps": initial.grid.size * max(int(round(horizon / dt)), 1)}
    if result is not None:
        counts["cap_hits"] = result.cap_hits - initial.cap_hits
    return counts


def _count_meanprice(args, kwargs, result, exc):
    params = _arg(args, kwargs, 0, "params")
    return {"path_steps": params.n_paths * params.n_steps}


def _count_mixture(args, kwargs, result, exc):
    import numpy as np

    prices = np.atleast_1d(_arg(args, kwargs, 0, "prices"))
    failed = type(exc).__name__ == "QuadratureError"
    return {"prices": prices.size, "quadrature_errors": int(failed)}


def _count_fixedpoint(args, kwargs, result, exc):
    if result is not None:
        return {"iterations": result.n_iterations}
    if type(exc).__name__ == "NonConvergence":
        return {"iterations": kwargs.get("max_iter", 200), "nonconverged": 1}
    return {}


def _count_rows(args, kwargs, result, exc):
    return {} if result is None else {"rows": result.size}


def _count_groups(args, kwargs, result, exc):
    return {} if result is None else {"groups": len(result)}


def _count_text_bytes(args, kwargs, result, exc):
    # The rendered table is ASCII, so characters are bytes.
    return {} if result is None else {"bytes": len(result)}


def _count_obs(args, kwargs, result, exc):
    return {} if result is None else {"obs": result.n}


#: (module, attribute, metric prefix, counter). The first entry is the root
#: of every invocation; its metrics are reported as ``cli.*``.
TARGETS = (
    ("cli", "main", "cli", None),
    ("cli", "atomic_write_text", "cli.atomic_write_text", _count_bytes_written),
    ("config", "load_config", "config.load_config", None),
    ("kinetic", "run", "kinetic.run", _count_kinetic),
    ("meanprice", "simulate_mean_price", "meanprice.simulate_mean_price", _count_meanprice),
    ("laws", "mixture_density", "laws.mixture_density", _count_mixture),
    ("fixedpoint", "fixed_point_solve", "fixedpoint.fixed_point_solve", _count_fixedpoint),
    ("dataio", "load_transactions", "dataio.load_transactions", _count_rows),
    ("dataio", "load_sample", "dataio.load_sample", _count_rows),
    ("dataio", "normalize_prices", "dataio.normalize_prices", _count_groups),
    ("dataio", "group_std_devs", "dataio.group_std_devs", None),
    ("dataio", "write_normalized_samples", "dataio.write_normalized_samples", _count_text_bytes),
    ("estimate", "fit_laplace", "estimate.fit_laplace", _count_obs),
    ("estimate", "fit_shifted_lognormal", "estimate.fit_shifted_lognormal", _count_obs),
    ("estimate", "ks_statistic", "estimate.ks_statistic", None),
    ("estimate", "histogram", "estimate.histogram", None),
    ("grids", "GriddedDistribution.from_density", "grids.GriddedDistribution.from_density", None),
    ("quasistatic", "quasi_static_density", "quasistatic.quasi_static_density", None),
    ("quasistatic", "intercept_price", "quasistatic.intercept_price", None),
)


class Tracer:
    """Keeps spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.invocation = ""

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.invocation))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name, counter):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                self.close(index)
                if counter is not None:
                    self.spans[index].counts = counter(args, kwargs, result, exc)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dispersim" or n.startswith("dispersim.")]
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[f"dispersim.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
                self._restore.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    selfs = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.end - s.start
    return selfs


def self_sum_error(spans: list[Span], selfs: list[float]) -> float:
    """Largest |sum of self times - root duration| over invocations, in s."""
    totals: dict[str, float] = {}
    roots: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        totals[s.invocation] = totals.get(s.invocation, 0.0) + own
        if s.parent is None:
            roots[s.invocation] = roots.get(s.invocation, 0.0) + s.end - s.start
    return max((abs(totals[k] - roots[k]) for k in totals), default=0.0)


def layer_totals(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """calls, busy_s, self_s and work counts summed per wrapped function."""
    out: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        if s.name == ROOT_SPAN:
            continue
        for key, value in (("calls", 1), ("busy_s", s.end - s.start), ("self_s", own)):
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    return out


#: Metric prefix of each wrapped function -> the work counts its counter records.
_LAYER_COUNTS = {
    "cli": [], "cli.atomic_write_text": [], "config.load_config": [],
    "kinetic.run": ["bin_steps", "cap_hits"],
    "meanprice.simulate_mean_price": ["path_steps"],
    "laws.mixture_density": ["prices", "quadrature_errors"],
    "fixedpoint.fixed_point_solve": ["iterations", "nonconverged"],
    "dataio.load_transactions": ["rows"], "dataio.load_sample": ["rows"],
    "dataio.normalize_prices": ["groups"], "dataio.group_std_devs": [],
    "dataio.write_normalized_samples": ["bytes"],
    "estimate.fit_laplace": ["obs"], "estimate.fit_shifted_lognormal": ["obs"],
    "estimate.ks_statistic": [], "estimate.histogram": [],
    "grids.GriddedDistribution.from_density": [],
    "quasistatic.quasi_static_density": [], "quasistatic.intercept_price": [],
}

#: Short names for the counts most often quoted: name -> (source key, unit).
_ALIASES = {
    "cli.bytes_written": ("cli.atomic_write_text.bytes_written", "B"),
    "kinetic.bin_steps": ("kinetic.run.bin_steps", "count"),
    "kinetic.cap_hits": ("kinetic.run.cap_hits", "count"),
    "meanprice.path_steps": ("meanprice.simulate_mean_price.path_steps", "count"),
    "fixedpoint.iterations": ("fixedpoint.fixed_point_solve.iterations", "count"),
    "fixedpoint.nonconverged": ("fixedpoint.fixed_point_solve.nonconverged", "count"),
}

#: Rate name -> (numerator key, denominator key, unit).
_RATES = {
    "kinetic.bin_steps_per_s": ("kinetic.run.bin_steps", "kinetic.run.busy_s", "1/s"),
    "kinetic.cap_frac": ("kinetic.run.cap_hits", "kinetic.run.bin_steps", "ratio"),
    "meanprice.path_steps_per_s": ("meanprice.simulate_mean_price.path_steps",
                                   "meanprice.simulate_mean_price.busy_s", "1/s"),
    "laws.mixture_density.prices_per_s": ("laws.mixture_density.prices",
                                          "laws.mixture_density.busy_s", "1/s"),
    "dataio.load_transactions.rows_per_s": ("dataio.load_transactions.rows",
                                            "dataio.load_transactions.busy_s", "1/s"),
    "dataio.load_sample.rows_per_s": ("dataio.load_sample.rows",
                                      "dataio.load_sample.busy_s", "1/s"),
    "estimate.obs_per_s": ("estimate.obs", "estimate.fit_busy_s", "1/s"),
}


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for prefix, counts in _LAYER_COUNTS.items():
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.busy_s"] = "s"
        units[f"{prefix}.self_s"] = "s"
        for count in counts:
            units[f"{prefix}.{count}"] = "B" if count == "bytes" else "count"
    units.update({name: unit for name, (_, unit) in _ALIASES.items()})
    units.update({name: unit for name, (_, _, unit) in _RATES.items()})
    units.update(MEASURED_BY_RUNNER)
    return units


#: Per-layer metrics the runner measures itself rather than from spans.
MEASURED_BY_RUNNER = {"cli.import_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
                      "trace.self_sum_error_s": "s"}


def per_layer_metrics(pass_totals: list[dict], check_totals: dict) -> dict[str, tuple]:
    """Median over traced passes of each per-pass total, plus derived metrics.

    Returns name -> (value, unit, base) where ``base`` names the figures a
    rate was computed from. Quasi-static metrics come from ``check_totals``:
    no subcommand reaches that module, only the benchmark's own check does.
    """
    units = layer_metric_units()
    keys = {k for totals in pass_totals for k in totals}
    value = {k: statistics.median(t.get(k, 0) for t in pass_totals) for k in keys}
    for k, v in check_totals.items():
        if k.startswith("quasistatic."):
            value[k] = v
    value["estimate.obs"] = (value.get("estimate.fit_laplace.obs", 0)
                             + value.get("estimate.fit_shifted_lognormal.obs", 0))
    value["estimate.fit_busy_s"] = (value.get("estimate.fit_laplace.busy_s", 0.0)
                                    + value.get("estimate.fit_shifted_lognormal.busy_s", 0.0))
    out = {}
    for name, unit in units.items():
        if name in _RATES:
            num, den, _ = _RATES[name]
            n, d = value.get(num, 0), value.get(den, 0)
            out[name] = (n / d if d else None, unit, f"{num}={n:.6g} / {den}={d:.6g}")
        elif name in _ALIASES:
            out[name] = (value.get(_ALIASES[name][0], 0), unit, None)
        elif name not in MEASURED_BY_RUNNER:
            out[name] = (value.get(name, 0), unit, None)
    return out
