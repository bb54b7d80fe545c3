"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload tower-p2 --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout of the repository and imports capelli
from its ``src`` directory. The run repeats whole rounds (set-up, three
timed phases, output checks) until ``--seconds`` have passed, then prints
the median of each figure over its rounds. With ``--trace 1`` each round
is run once untraced and once traced, and the per-layer figures of the
traced round are printed instead, with the tracing overhead; the traced
spans are written to ``bench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from tracing import LAYER_UNITS
from workloads import PHASE_METRICS, WORKLOADS, run_round

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(spec, rounds, rss_mb):
    metrics = {
        "setup_s": metric(statistics.median(s for r in rounds for s in r.setup_s), "s"),
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    for name, phase in zip(PHASE_METRICS, spec.phases):
        metrics[name] = metric(statistics.median(r.times[phase] for r in rounds), "s")
    return metrics


def per_layer(pairs):
    """Medians over traced rounds; counts are taken from the first."""
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        values = [traced.layers[name] for _, traced in pairs]
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: {name} differs between traced rounds: {values}", file=sys.stderr)
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = metric(value, unit)
    overheads = [traced.wall_s - plain.wall_s for plain, traced in pairs]
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    metrics["trace.untraced_wall_s"] = metric(
        statistics.median(plain.wall_s for plain, _ in pairs), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "capelli", "__init__.py")):
        print(f"error: no capelli sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    trace_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        if os.path.exists(trace_path):
            os.remove(trace_path)

    start = time.perf_counter()
    rounds = []
    pairs = []
    while not rounds or time.perf_counter() - start < args.seconds:
        plain = run_round(spec, args.seed)
        rounds.append(plain)
        if len(rounds) == 1:
            # later rounds leave freed-but-held heap behind, so the peak after
            # the first round is the one that does not depend on run length
            rss_mb = peak_rss_mb()
        if args.trace:
            traced = run_round(spec, args.seed, traced=True, trace_path=trace_path,
                               round_id=len(pairs))
            rounds.append(traced)
            pairs.append((plain, traced))

    correct = True
    for i, r in enumerate(rounds):
        for err in r.errors:
            print(f"round {i}: failed operation: {err}", file=sys.stderr)
        if r.check_error:
            correct = False
            print(f"round {i}: check failed: {r.check_error}", file=sys.stderr)
        phases = ", ".join(f"{k} {v:.3f}s" for k, v in r.times.items())
        rates = ", ".join(f"{k} {n / r.times[k]:.1f}/s" for k, n in r.work.items())
        print(f"round {i}: wall {r.wall_s:.3f}s ({phases}) {rates}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": per_layer(pairs) if args.trace else end_to_end(spec, rounds, rss_mb),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
