#!/usr/bin/env python3
"""Benchmark of the dispersim command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

One process runs one workload. It calls ``dispersim.cli.main`` in-process
with the code under ``src/``, in a closed loop with one client: each
invocation starts only after the previous one has returned. After a warm-up
pass, whose artifacts are checked against named references, it repeats
passes over the workload's invocation list for ``--seconds`` (at least two
passes). Every artifact of a timed pass must be byte-identical to the
warm-up's.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead; its spans are written to
``bench/.work/traces/<workload>-seed<n>.json``. A human-readable report
goes to standard output, and its last line is one JSON object with the
metrics that ``BENCHMARK.json`` declares.

An invocation fails when it exits non-zero, when its artifacts fail their
check, or when they differ from the warm-up's. ``correct`` is false when a
failure means a wrong or missing answer: a failed check, different bytes,
exit code 1 (the inputs are valid) or an uncaught exception. Exit code 2,
the model refusing the run, counts as a failure but not as a wrong answer.
"""

from __future__ import annotations

import os
import sys
import time

# Before numpy is imported: one BLAS/OpenMP thread, and no bytecode files,
# so every run imports the package the way a fresh checkout does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracing import (  # noqa: E402  (after the environment is set)
    ROOT_SPAN, Tracer, layer_metric_units, layer_totals, per_layer_metrics,
    self_sum_error, self_times,
)

#: Cold imports and input generations measured per run for ``setup_s``.
SETUP_REPEATS = 3

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import dispersim.cli; "
                 "print(time.perf_counter() - t)")

#: Rows of the CSV text the calibration kernel parses.
_CALIBRATION_CSV = "".join(f"g{i % 200:03d},m{i % 10:02d},2011Q{i % 4 + 1},{1.0 + i * 1e-6!r},"
                           f"{i % 10 + 1}\n" for i in range(5000))

#: End-to-end metric -> unit, in report order.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_cal": "ratio",
    "simulate_kinetic_s": "s", "simulate_meanprice_s": "s", "mixture_s": "s",
    "fixed_point_s": "s", "normalize_s": "s", "fit_s": "s",
    "fail_frac": "ratio", "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    traced: bool
    wall: float  # sum of the invocation times
    times: list[float]
    codes: list
    digests: list[dict[str, str]]
    scaled: list[float]  # invocation time / mean of the calibrations around it


@dataclass
class Outcome:
    """Everything one workload run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: dict[str, str] = field(default_factory=dict)
    e2e: dict[str, tuple] = field(default_factory=dict)  # name -> (median, samples)
    layers: dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit, base)
    invocations: list[tuple] = field(default_factory=list)
    setup_parts: tuple = ()  # medians of cold import and generation, warm-up pass


class Calibration:
    """Times a fixed mix of interpreter, allocation, CSV, numpy and cache-missing work.

    On a shared host the machine's speed drifts by tens of percent within a
    minute, and memory-heavy code slows more than a small loop does. The
    benchmark runs this kernel before and after every invocation; the
    invocation's time divided by the mean of the two keeps the program's own
    cost and drops most of the drift (``wall_cal``). The random gather over
    a 24 MB working set misses the private caches, as the data path does.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._table = rng.random(2_000_000)
        self._order = rng.permutation(2_000_000).astype(np.int32)

    def __call__(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        rows = [(float(i), str(i), [i]) for i in range(20_000)]
        sums: dict[str, float] = {}
        for good, _, _, price, quantity in csv.reader(io.StringIO(_CALIBRATION_CSV)):
            sums[good] = sums.get(good, 0.0) + float(price) * float(quantity)
        values = np.linspace(0.0, 1.0, 200_000)
        for _ in range(5):
            values = np.exp(-values) * 0.5 + np.abs(values - 0.3)
        for _ in range(2):
            total += int(self._table[self._order].sum())
        del rows
        return time.perf_counter() - t0


def _child_import_s() -> float:
    """Cold import of ``dispersim.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def _digest_dir(path: Path) -> dict[str, str]:
    if not path.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


def _call_cli(cli, argv, tracer, invocation_id):
    """Exit code of one ``dispersim`` call, or a crash description."""
    with contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.invocation = invocation_id
            root = tracer.open(ROOT_SPAN)
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # the benchmark keeps running and reports it
            return f"crash: {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close(root)


def run_pass(cli, invocations, out_root: Path, calibrate: Calibration, tracer=None,
             fault=None, tag="") -> PassResult:
    """One pass over the invocation list, with the calibration kernel around
    every invocation; ``fault`` is for the self-test only."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    times, codes, calibrations = [], [], [calibrate()]
    for i, inv in enumerate(invocations):
        config = out_root / "missing.cfg" if fault == "exit" and i == 0 else inv.config
        argv = [inv.command, str(config), "--out", str(out_root / inv.name)]
        t0 = time.perf_counter()
        codes.append(_call_cli(cli, argv, tracer, f"{tag}:{inv.name}"))
        times.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
    if fault == "tamper":
        victim = sorted((out_root / invocations[0].name).iterdir())[0]
        victim.write_bytes(victim.read_bytes() + b" ")
    digests = [_digest_dir(out_root / inv.name) for inv in invocations]
    scaled = [t / (0.5 * (calibrations[i] + calibrations[i + 1])) for i, t in enumerate(times)]
    return PassResult(tracer is not None, sum(times), times, codes, digests, scaled)


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            index = min(n - 1, int(p / 100.0 * n))
            return p, sorted(samples)[index]
    return None


def environment() -> dict[str, str]:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "cpu": cpu, "nproc": str(os.cpu_count()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_workload(name: str, seed: int, seconds: float, trace: bool, cli, import_s: float,
                 tiny: bool = False, min_passes: int = 2, faults=None) -> Outcome:
    import numpy as np

    from workloads import OUT_DIR, SUBCOMMAND_METRICS, WORKLOADS

    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out_root = work / OUT_DIR
        imports = [import_s] + [_child_import_s() for _ in range(SETUP_REPEATS - 1)]
        generations = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            invocations = WORKLOADS[name](work, np.random.default_rng(seed), tiny)
            generations.append(time.perf_counter() - t0)
        calibrate = Calibration()
        warm = run_pass(cli, invocations, out_root, calibrate, tag="warmup")
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.invocation = "checks"
            tracer.install()
        try:
            checks = [inv.check(out_root) if code == 0 else None
                      for inv, code in zip(invocations, warm.codes)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_spans = len(tracer.spans) if tracer is not None else 0

        faults = faults or {}
        passes: list[PassResult] = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            k = len(passes)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            try:
                passes.append(run_pass(cli, invocations, out_root, calibrate,
                                       tracer if traced else None, faults.get(k), tag=f"pass{k}"))
            finally:
                if traced:
                    tracer.uninstall()

        result = Outcome(name)
        _count_failures(result, invocations, warm, checks, passes)
        plain = [p for p in passes if not p.traced]
        result.setup_parts = (statistics.median(imports), statistics.median(generations),
                              warm.wall)
        setup = sum(result.setup_parts)
        result.e2e["setup_s"] = (setup, [setup])
        result.e2e["wall_s"] = (statistics.median(p.wall for p in plain), [p.wall for p in plain])
        pass_cal = [sum(p.scaled) for p in plain]
        result.e2e["wall_cal"] = (statistics.median(pass_cal), pass_cal)
        for command, metric in SUBCOMMAND_METRICS.items():
            idx = [i for i, inv in enumerate(invocations) if inv.command == command]
            if idx:
                sums = [sum(p.times[i] for i in idx) for p in plain]
                result.e2e[metric] = (statistics.median(sums), sums)
        result.e2e["fail_frac"] = (result.failed / result.attempted, [])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.e2e["peak_rss_mb"] = (rss, [rss])
        if tracer is not None:
            result.layers = _layer_metrics(tracer, check_spans, passes, import_s)
            _write_spans(tracer.spans, name, seed)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _count_failures(result: Outcome, invocations, warm: PassResult, checks, passes) -> None:
    for i, inv in enumerate(invocations):
        if checks[i]:
            result.problems[inv.name] = f"check failed: {checks[i]}"
            result.correct = False
        for p in passes:
            result.attempted += 1
            code = p.codes[i]
            if code != 0:
                result.problems.setdefault(inv.name, f"exit {code}")
                result.correct = result.correct and code == 2
            elif p.digests[i] != warm.digests[i]:
                result.problems.setdefault(inv.name, "artifact bytes differ from warm-up")
                result.correct = False
            elif not checks[i]:
                continue
            result.failed += 1
        times = [p.times[i] for p in passes if not p.traced]
        result.invocations.append((inv.name, inv.command, times, warm.codes[i]))


def _layer_metrics(tracer: Tracer, check_spans: int, passes, import_s: float) -> dict:
    """Per-layer metrics of a traced run; spans before ``check_spans`` are the checks'."""
    selfs = self_times(tracer.spans)
    error = self_sum_error(tracer.spans, selfs)
    if error > 1e-6:
        raise RuntimeError(f"span self times miss their invocation's wall by {error} s")
    per_pass = {f"pass{k}": [] for k, p in enumerate(passes) if p.traced}
    for span, own in zip(tracer.spans[check_spans:], selfs[check_spans:]):
        per_pass[span.invocation.split(":")[0]].append((span, own))
    pass_totals = [layer_totals([s for s, _ in group], [o for _, o in group])
                   for group in per_pass.values()]
    layers = per_layer_metrics(
        pass_totals, layer_totals(tracer.spans[:check_spans], selfs[:check_spans]))
    traced = statistics.median(p.wall for p in passes if p.traced)
    untraced = statistics.median(p.wall for p in passes if not p.traced)
    layers["cli.import_s"] = (import_s, "s", None)
    layers["trace.overhead_s"] = (traced - untraced, "s", f"traced wall_s={traced:.6g} - "
                                                          f"untraced wall_s={untraced:.6g}")
    layers["trace.spans"] = (len(tracer.spans), "count", None)
    layers["trace.self_sum_error_s"] = (error, "s", None)
    return layers


def _write_spans(spans, workload: str, seed: int) -> None:
    directory = BENCH / ".work" / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    rows = [[s.name, s.start, s.end, s.parent, s.invocation, s.counts] for s in spans]
    payload = {"fields": ["name", "start", "end", "parent", "invocation", "counts"],
               "spans": rows}
    (directory / f"{workload}-seed{seed}.json").write_text(json.dumps(payload))


def report(result: Outcome, trace: bool) -> set[str]:
    """Print the human-readable report; return the metric names printed."""
    printed = set()
    print(f"workload {result.workload}: attempted {result.attempted}, failed {result.failed}, "
          f"correct {result.correct}")
    for inv, problem in result.problems.items():
        print(f"  failure {inv}: {problem}")
    for inv_name, command, times, code in result.invocations:
        print(f"  invocation {inv_name} ({command}): median "
              f"{statistics.median(times):.6f} s, n={len(times)}, warm-up exit {code}")
    if not trace:
        imports, generation, warm = result.setup_parts
        print(f"  setup parts: cold import {imports:.4f} s + input generation "
              f"{generation:.4f} s + warm-up pass {warm:.4f} s (medians of {SETUP_REPEATS})")
        for metric, unit in E2E_UNITS.items():
            printed.add(metric)
            if metric not in result.e2e:
                print(f"metric {metric:<22} not run by this workload ({unit})")
                continue
            value, samples = result.e2e[metric]
            tail = tail_percentile(samples)
            tail_text = f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else "no tail percentile"
            if metric == "fail_frac":
                tail_text = f"{result.failed} of {result.attempted} invocations"
            print(f"metric {metric:<22} median {value:.6g} {unit}; {tail_text}; "
                  f"n={len(samples) or result.attempted}")
    else:
        for metric, (value, unit, base) in result.layers.items():
            printed.add(metric)
            shown = "n/a (not called)" if value is None else f"{value:.6g} {unit}"
            based = f" (base: {base})" if base else ""
            print(f"layer {metric:<48} {shown}{based}")
    return printed


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(result: Outcome, trace: bool) -> str:
    spec = _declared()
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if trace:
            value, unit, _ = result.layers[entry["name"]]
        else:
            value, unit = result.e2e[entry["name"]][0], E2E_UNITS[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": result.correct, "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})


def _import_cli():
    """``dispersim.cli`` from this checkout's ``src/``, and its cold import time."""
    t0 = time.perf_counter()
    cli = importlib.import_module("dispersim.cli")
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dispersim was imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def self_test(cli, import_s: float) -> int:
    """Tiny-size passes of every workload, traced and not, plus fault injection."""
    from workloads import WORKLOADS

    printed: set[str] = set()
    closed_fail = None
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, 0.0, trace, cli, import_s, tiny=True)
            printed |= report(result, trace)
            if not result.correct:
                print(f"self-test: {name} reported an incorrect output at tiny size")
                return 1
            if name == "closed-forms" and not trace:
                closed_fail = result.e2e["fail_frac"][0]
    missing = (set(E2E_UNITS) | set(layer_metric_units())) - printed
    faulty = run_workload("sim-sweep", 1, 0.0, False, cli, import_s, tiny=True,
                          min_passes=3, faults={1: "tamper", 2: "exit"})
    report(faulty, False)
    checks = {
        "every metric printed": not missing,
        "default fixed-point counted in closed-forms fail_frac": bool(closed_fail),
        "tampered artifact and forced exit both counted": faulty.failed == 2,
        "fail_frac is failed / attempted": faulty.e2e["fail_frac"][0] == 2 / faulty.attempted,
        "the failures mark the output incorrect": not faulty.correct,
    }
    for text, ok in checks.items():
        print(f"self-test {'ok  ' if ok else 'FAIL'} {text}")
    if missing:
        print(f"self-test: metrics never printed: {sorted(missing)}")
    return 0 if all(checks.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        cli, import_s = _import_cli()
    except ImportError as exc:
        print(f"bench: cannot import dispersim from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.self_test:
        return self_test(cli, import_s)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          cli, import_s)
    report(result, bool(args.trace))
    print(result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
