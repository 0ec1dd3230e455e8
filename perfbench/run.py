"""End-to-end, layer-attributed benchmark of the repro library.

Run from the root of a source checkout (the library is imported from
``./src``; nothing needs installing)::

    python3 perfbench/run.py --workload zdt1-nsga2 --seed 2011 --seconds 20 --trace 0
    python3 perfbench/run.py --workload table2-design --trace 1   # per-layer split
    python3 -m pytest perfbench -q                                # trace arithmetic

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``.  One run
measures one workload in this interpreter for ``--seconds``; the set-up is
timed separately in fresh interpreters (``probe.py``).  Every unit is
checked (see ``workloads.py``).

``--trace 0`` puts the end-to-end metrics in the result line: ``setup_s``
(median of the fresh-interpreter set-ups), ``ref_latency_s.p50`` (median
seconds per unit at the reference host speed: each unit's wall time scaled
by ``CALIBRATION_REFERENCE_S`` over the time of the calibration loop run
around it, see ``workloads.calibrate``), ``ref_evals_per_s`` (median rows
per reference second, robustness trials included) and ``peak_rss_mb``.
The report above it also gives the raw wall times ``latency_s.p50``,
``latency_s.best`` and ``latency_s.p90`` (from 100 units on), the raw
``evals_per_s``, the median
``calibration_s.p50``, ``units_per_s`` (solves or pipelines per busy
second; jobs per second of the loop for ``serve-cache``) and
``failed_frac``.  ``--trace 1`` runs every
unit twice, untraced then traced, and reports per-layer self time, calls and
share of the traced latency, the layers' own counters and
``trace.overhead`` (traced over untraced latency).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Spans of the traced units are written to
``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    """Command-line options."""
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision(root: Path) -> str:
    """Commit of ``root`` read from its own ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[len("ref: "):]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(name: str, workdir: Path) -> list:
    """Set-up times of ``SETUP_PROBES`` fresh interpreters."""
    times = []
    for index in range(SETUP_PROBES):
        probe_dir = workdir / ("probe-%d" % index)
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def measured(units: list) -> list:
    """The untraced units that have a latency."""
    return [u for u in units if u.latency is not None and not u.traced]


def end_to_end(units: list, setup: list) -> dict:
    """The ``--trace 0`` metrics as ``{name: (value, unit)}``.

    Latency and throughput are gated at the reference host speed (see
    :func:`workloads.calibrate`): on a shared host whole runs slow down by
    up to 1.8x, which no statistic of raw wall times within a run removes.
    """
    units = measured(units)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ref_latency_s.p50": (statistics.median(u.ref_latency for u in units), "s"),
        "ref_evals_per_s": (statistics.median(u.rows / u.ref_latency for u in units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def observed(units: list, wall: float) -> dict:
    """Reported but not gated: raw wall times, throughput, failures."""
    latencies = sorted(u.latency for u in measured(units))
    values = {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.best": (latencies[0], "s"),
        "evals_per_s": (statistics.median(u.rows / u.latency for u in measured(units)), "1/s"),
        "calibration_s.p50": (statistics.median(u.calibration for u in measured(units)), "s"),
        "units_per_s": (len(latencies) / wall, "1/s"),
        "failed_frac": (sum(1 for u in units if u.errors) / len(units), "ratio"),
    }
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        values["latency_s.p90"] = (statistics.quantiles(latencies, n=10)[8], "s")
    return values


def trace_overhead(units: list) -> float:
    """Median traced/untraced latency, paired by seed where seeds repeat."""
    plain = {u.seed: u.latency for u in units if u.latency is not None and not u.traced}
    traced = [u for u in units if u.traced and u.latency is not None]
    ratios = [u.latency / plain[u.seed] for u in traced if u.seed in plain]
    if ratios:
        return statistics.median(ratios)
    return statistics.median(u.latency for u in traced) / statistics.median(plain.values())


def per_layer(tracer, units: list, extra: dict) -> dict:
    """The ``--trace 1`` metrics: per traced unit, except shares and ratios."""
    from tracing import LAYERS, layer_table, root_time

    n = sum(1 for u in units if u.traced)
    table = layer_table(tracer.spans)
    total = root_time(tracer.spans)
    metrics = {}
    for layer in LAYERS:
        row = table.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[layer + ".self_s"] = (row["self_s"] / n, "s")
        metrics[layer + ".calls"] = (row["calls"] / n, "count")
        metrics[layer + ".share"] = (row["self_s"] / total, "ratio")
    counters = tracer.counters
    offered = counters["moo.archive.offered"]
    serve = extra.get("serve", {})
    metrics.update({
        "moo.archive.offered": (offered / n, "count"),
        "moo.archive.fresh_ratio": (counters["moo.archive.fresh"] / offered if offered else 0.0,
                                    "ratio"),
        "runtime.evaluator.rows": (counters["runtime.evaluator.rows"] / n, "count"),
        "runtime.evaluator.batches": (counters["runtime.evaluator.batches"] / n, "count"),
        "moo.robustness.trials": (counters["moo.robustness.trials"] / n, "count"),
        "moo.archipelago.migrations": (counters["moo.archipelago.migrations"] / n, "count"),
        "runtime.checkpoint.saves": (counters["runtime.checkpoint.saves"] / n, "count"),
        "runtime.checkpoint.bytes": (counters["runtime.checkpoint.bytes"] / n, "B"),
        "serve.queue_wait_s": (serve.get("queue_wait", 0.0), "s"),
        "serve.run_s": (serve.get("run", 0.0), "s"),
        "serve.overhead_s": (serve.get("overhead", 0.0), "s"),
        "runtime.diskcache.hit_rate": (extra.get("hit_rate", 0.0), "ratio"),
        "trace.latency_s": (total / n, "s"),
        "trace.overhead": (trace_overhead(units), "ratio"),
    })
    return metrics


def report(stamp: dict, units: list, metrics: dict, extra: dict) -> None:
    """Print the readable report (everything before the result line)."""
    from tracing import LAYERS

    print("perfbench %s" % json.dumps(stamp, sort_keys=True))
    print("units: %d measured, %d traced, %d attempted, %d failed" % (
        sum(1 for u in units if u.latency is not None and not u.traced),
        sum(1 for u in units if u.traced),
        len(units),
        sum(1 for u in units if u.errors),
    ))
    digests = sorted({"%d:%s" % (u.seed, u.digest) for u in units if u.digest})
    print("digests (seed:digest): %s" % " ".join(digests[:4]))
    if stamp["trace"]:
        print("%-22s %10s %10s %7s" % ("layer", "self_s", "calls", "share"))
        for layer in LAYERS:
            print("%-22s %10.4f %10.1f %6.1f%%" % (
                layer,
                metrics[layer + ".self_s"][0],
                metrics[layer + ".calls"][0],
                100 * metrics[layer + ".share"][0],
            ))
    layer_columns = {"%s.%s" % (layer, column) for layer in LAYERS
                     for column in ("self_s", "calls", "share")}
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        if name not in layer_columns:
            print("%-28s %14.6f %s" % (name, value, unit))


def main(argv: "list[str] | None" = None) -> int:
    """Run one workload and print the report and the result line."""
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: no library source at %s; run from the repository root" % source,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # Service runners are separate interpreters: they must import this tree too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    args = parse_args(argv)

    import numpy
    import workloads
    from tracing import Tracer, write_spans

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    base = root / ".perfbench"
    workdir = base / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload)
    tracer = Tracer()
    try:
        setup = [] if args.trace else setup_seconds(args.workload, workdir)
        workload.setup(workdir)
        outcome = workload.measure(args.seed, args.seconds, bool(args.trace), tracer)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = outcome["units"]
    if args.trace:
        metrics = per_layer(tracer, units, outcome)
        write_spans(tracer.spans, str(base / ("spans-%s.jsonl" % args.workload)))
    else:
        metrics = end_to_end(units, setup)
    for unit in units:
        for error in unit.errors:
            print("FAILED seed %d: %s" % (unit.seed, error), file=sys.stderr)
    report(stamp, units, metrics, {} if args.trace else observed(units, outcome["wall"]))
    failed = sum(1 for u in units if u.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
