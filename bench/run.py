#!/usr/bin/env python3
"""Benchmark of the vizing colourer: one workload per process.

    python3 bench/run.py --workload colour-random --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src`` and its
command line is run with ``PYTHONPATH=src``, so nothing is installed.  The
run sets its inputs up three times (``setup_s`` is the median), checks that
the referee rejects one-edge corruptions, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed and reports, per
metric, the 20%-trimmed mean of the rounds in reference seconds (see
``calibrate.py``).  With ``--trace 1`` those rounds are followed by one
traced round, and the per-layer metrics are reported instead, with the
tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; results and traces also go to
``bench/out/``.  Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

from calibrate import REFERENCE_S, Kernel, cpu_seconds, normalised
from referee import Rejected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 3

# spans whose call count and self time are reported as layer metrics
SPAN_CALLS = (
    "multigraph.from_text", "colouring.shift_in_place", "colouring.classify_chain",
    "chains.max_fan", "chains.vizing_chain", "chains.augment_in_place", "chains.alternating_path",
    "iterated.superb_scan", "engine.build_schedule", "audit.build_audit_graph",
    "audit.check_unimprovable", "audit.weighted_chain_mass", "audit.superb_count_check",
)
SPAN_SELF = SPAN_CALLS + (
    "multigraph.to_text", "colouring.from_dump", "colouring.to_text", "engine.colour_sequential",
    "engine.run_scheduler", "engine.orient", "audit.uncoloured_fraction_bounds",
    "cli.colour", "cli.schedule", "cli.audit", "cli.orient",
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _save(path: str, key: str, entry: dict) -> None:
    """Set ``key`` in the JSON object stored at ``path`` (atomically)."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[key] = entry
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def run_round(ops, kernel, tracer=None) -> dict:
    """Run every operation once, timing its CPU seconds, with the
    calibration kernel timed before the first and after each operation; the
    round's times are scaled by the median kernel time to reference
    seconds.  The referee judges the outputs once the round is over."""
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}
    failed, rejected, kernels, results = [], [], [kernel.time()], []
    fans = walked = probes = 0
    for op in ops:
        gc.collect()
        if tracer is not None:
            fans0, walked0 = tracer.calls["chains.max_fan"], tracer.counts["chains.walk_edges"]
        start, start_cpu = perf_counter(), cpu_seconds()
        try:
            result = op.run()
        except Exception:  # a failing operation is counted; the run goes on
            traceback.print_exc()
            failed.append(op.name)
        else:
            wall[op.name] = perf_counter() - start
            cpu[op.name] = cpu_seconds() - start_cpu
            results.append((op, result))
        kernels.append(kernel.time())
        if tracer is not None and op.probes:
            fans += tracer.calls["chains.max_fan"] - fans0
            walked += tracer.counts["chains.walk_edges"] - walked0
            probes += op.probes
    for op, result in results:
        try:
            op.check(result)
        except (Rejected, ValueError, KeyError) as ex:
            rejected.append(f"{op.name}: {ex}")
    scale = REFERENCE_S / statistics.median(kernels)
    times = {name: t * scale for name, t in cpu.items()}
    by_metric: defaultdict[str, float] = defaultdict(float)
    for op in ops:
        by_metric[op.metric] += times.get(op.name, 0.0)
    return {
        "wall": wall, "cpu": cpu, "times": times, "by_metric": dict(by_metric), "kernels": kernels,
        "failed": failed, "rejected": rejected, "fans": fans, "walked": walked, "probes": probes,
    }


def trimmed_mean(values: list[float], share: float = 0.2) -> float:
    """Mean of the values left after dropping ``share`` of them at each end
    (0 when there are none: an operation that failed in every round)."""
    if not values:
        return 0.0
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k : len(values) - k])


def layer_metrics(tracer, traced: dict, overhead: float, extras: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = tracer.calls[name]
    for name in SPAN_SELF:
        values[f"{name}.self_s"] = tracer.self_s[name]
    walk = tracer.counts["chains.walk_edges"]
    entries = tracer.counts["iterated.scan_entries"]
    path_edges = extras.pop("audit.count_path_edges", 0)
    values.update({
        "chains.walk_edges": walk,
        "chains.walk.us_per_edge": 1e6 * tracer.self_s["chains.alternating_path"] / walk if walk else 0.0,
        "iterated.scan_entries": entries,
        "iterated.scan.us_per_entry": 1e6 * tracer.total_s["iterated.superb_scan"] / entries if entries else 0.0,
        "iterated.superb_ratio": tracer.counts["iterated.superb_entries"] / entries if entries else 0.0,
        "engine.schedule_classes": tracer.counts["engine.schedule_classes"],
        "engine.largest_class": tracer.counts["engine.largest_class"],
        "engine.rounds": 0,
        "engine.busy_round_ratio": 0.0,
        "engine.round_log_bytes": 0,
        "audit.superb_count_check.us_per_path_edge":
            1e6 * tracer.total_s["audit.superb_count_check"] / path_edges if path_edges else 0.0,
        "audit.fans_per_probe": traced["fans"] / traced["probes"] if traced["probes"] else 0.0,
        "audit.walk_edges_per_probe": traced["walked"] / traced["probes"] if traced["probes"] else 0.0,
        "trace.overhead": overhead,
    })
    values.update(extras)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(src, "vizing")) or not os.path.isfile(spec_path):
        print(f"error: {src}/vizing or {spec_path} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import selfcheck
    import spans
    from workloads import WORKLOADS, Cli

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    cli = Cli(ROOT, in_process=bool(args.trace))
    kernel = Kernel()
    try:
        setups = []
        before = kernel.time()
        for _ in range(1 if args.trace else SETUPS):
            gc.collect()
            start = cpu_seconds()
            wl = WORKLOADS[args.workload](args.seed, work, cli)
            wl.setup()
            elapsed = cpu_seconds() - start
            after = kernel.time()
            setups.append(normalised(elapsed, before, after))
            before = after
        broken = selfcheck.run(work, Cli(ROOT, in_process=True))
        ops = wl.ops()
        # collections during the rounds should not traverse the inputs and
        # the referee's copies of them, which the program would not hold
        gc.collect()
        gc.freeze()
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < args.seconds:
            rounds.append(run_round(ops, kernel))
        if args.trace:
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                traced = run_round(ops, kernel, tracer)
            finally:
                spans.uninstall(undo)
            untraced = trimmed_mean([sum(r["times"].values()) for r in rounds])
            rounds.append(traced)
            overhead = sum(traced["times"].values()) / untraced - 1
            values = layer_metrics(tracer, traced, overhead, wl.layer_extras())
        else:
            values = {
                "setup_s": _median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for metric in {op.metric for op in ops}:
                values[metric] = trimmed_mean([r["by_metric"][metric] for r in rounds])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(len(r["failed"]) for r in rounds)
    rejected = [msg for r in rounds for msg in r["rejected"]]
    for msg in rejected + [f"self-check: {name} is not live" for name in broken]:
        print(f"rejected: {msg}", file=sys.stderr)

    def per_op(key: str, summary) -> dict[str, float]:
        return {op.name: summary([r[key][op.name] for r in rounds if op.name in r[key]]) for op in ops}

    entry = {
        "seed": args.seed, "seconds": args.seconds, "rounds": len(rounds), "setups_ref_s": setups,
        "ops_ref_s": per_op("times", trimmed_mean), "ops_cpu_s": per_op("cpu", _median),
        "ops_wall_s": per_op("wall", _median), "reference_kernel_s": REFERENCE_S,
        "kernel_s": _median([k for r in rounds for k in r["kernels"]]),
        "per_round": [{k: r[k] for k in ("times", "kernels")} for r in rounds],
        "values": values, "rejected": rejected, "self_check_failures": broken,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    if args.trace:
        _save(os.path.join(OUT, "trace.json"), args.workload, entry)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.tsv.gz"))
    else:
        _save(os.path.join(OUT, "results.json"), args.workload, entry)
    for name, seconds in entry["ops_ref_s"].items():
        print(f"{name:45s} {seconds:8.4f} ref s {entry['ops_wall_s'][name]:8.4f} wall s")
    result = {
        "correct": not rejected and not broken,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
