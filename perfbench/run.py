#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root (the program is imported from ``src/``).
Workloads, metric names and units are declared in ``BENCHMARK.json``;
``perfbench/layers.json`` maps each per-layer metric to the end-to-end
metric it should move.

- ``--trace 0`` measures the end-to-end metrics with the shipped defaults.
- ``--trace 1`` additionally repeats the timed phase with timing probes
  around the layer boundaries (:mod:`perfbench.probes`) and reports the
  per-layer metrics instead.

Every answer is compared with the expected answer of its query: the
committed ``perfbench/expected/<workload>.json`` at seed 0, otherwise a
serial fresh-session oracle run after the timed phase.  The run re-executes
itself with ``PYTHONHASHSEED`` set from ``--seed``, so a seed fixes the
string-hash layout too and a set of seeds samples several layouts.
Standard output carries
one ``{"record": ...}`` line with the raw samples and the environment,
then the result line; a table goes to standard error.  Exit status: 0
measured, 1 a wrong answer, 2 the benchmark could not run, 3 the run is
invalid (the open-loop generator fell behind or its backlog grew).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("cold-vision", "warm-relational", "serve-rotowire")


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` for a workload seed.  The run, and the server it
    starts, hash strings by it: with per-process hash randomization,
    warm-relational throughput moved by up to 18% between runs of one
    seed, so the layout is part of what the seed fixes."""
    return str(seed % 2**32)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's lake scale (smoke "
                             "tests); answers then come from the oracle")
    parser.add_argument("--expected", metavar="PATH", default=None,
                        help="check answers against this expected file")
    parser.add_argument("--write-expected", metavar="PATH", default=None,
                        help="write the oracle's answers to PATH")
    return parser.parse_args(argv)


def _end_to_end(phase, outcome: dict) -> tuple[dict, dict]:
    from perfbench.common import beyond, percentile, windowed_median
    latencies = phase.latencies_ms
    metrics = {
        "setup_s": statistics.median(outcome["setup_s"]),
        "throughput_qps": phase.correct / phase.elapsed_s,
        "latency_p50_ms": windowed_median(latencies),
        "llm_tokens_per_query": (phase.tokens_in + phase.tokens_out)
        / max(phase.answers, 1),
        "peak_rss_mb": outcome["peak_rss_mb"],
        # Recorded, not gated: too few samples beyond it on cold-vision,
        # too unsteady run to run on serve-rotowire.
        "latency_p95_ms": percentile(latencies, 95),
    }
    samples = {
        "setup_s": len(outcome["setup_s"]),
        "throughput_qps": phase.answers,
        "latency_p50_ms": len(latencies),
        "latency_p95_ms": len(latencies),
        "latency_p95_samples_beyond": beyond(latencies, 95),
        "llm_tokens_per_query": phase.answers,
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _table(metrics: dict, units: dict, extra: dict) -> str:
    lines = [f"  {name:<34s} {metrics[name]:>14.4f} {units[name]}"
             for name in metrics]
    for name, value in extra.items():
        lines.append(f"  {name:<34s} {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed)))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from perfbench.common import Expected, environment
        from perfbench.inproc import cold_vision, warm_relational
        from perfbench.serve_load import serve_rotowire
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    workloads = {"cold-vision": cold_vision,
                 "warm-relational": warm_relational,
                 "serve-rotowire": serve_rotowire}
    expected = Expected(args.workload, args.seed,
                        default_scale=args.scale is None,
                        path=args.expected, write_path=args.write_expected)
    try:
        outcome = workloads[args.workload](args, expected)
    except Exception:  # noqa: BLE001 - the benchmark's outermost boundary
        traceback.print_exc()
        print("perfbench: the run failed", file=sys.stderr)
        return 2

    phase = outcome["phase"]
    check = outcome["check"]
    if not phase.latencies_ms:
        print("perfbench: no query was answered", file=sys.stderr)
        return 2
    metrics, samples = _end_to_end(phase, outcome)
    failed = phase.attempted - phase.correct
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "environment": environment(),
        "lake": outcome["fingerprints"],
        "expected_source": check.source, "oracle_s": expected.oracle_s,
        "attempted": phase.attempted, "correct": phase.correct,
        "failed": failed, "error_results": phase.errors,
        "refused_429": getattr(phase, "refused", 0),
        "wrong_queries": sorted(set(check.wrong)),
        "error_rate": failed / max(phase.attempted, 1),
        "end_to_end": metrics, "sample_counts": samples,
        "samples": {"latency_ms": phase.latencies_ms,
                    "setup_s": outcome["setup_s"],
                    "timed_s": phase.elapsed_s},
        "invalid": outcome.get("invalid"),
    }
    if getattr(phase, "serve", None):
        record["serve"] = phase.serve
    if args.trace:
        layers = outcome["layers"]
        layers["metrics"]["trace.overhead_share"] = outcome["overhead"]
        record["layers"] = layers
        ranking = sorted(layers["self_ms_by_layer"].items(),
                         key=lambda item: -item[1])
        record["largest_self_time_layer"] = ranking[0][0]
        names = [entry["name"] for entry in spec["per_layer"]]
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        values = layers["metrics"]
    else:
        names = [entry["name"] for entry in spec["end_to_end"]]
        units = {entry["name"]: entry["unit"]
                 for entry in spec["end_to_end"]}
        values = metrics
    missing = [name for name in names if name not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    reported = {name: values[name] for name in names}
    correct = not check.wrong

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{phase.correct}/{phase.attempted} correct "
          f"(answers from {check.source})", file=sys.stderr)
    extra = {"error_rate": f"{record['error_rate']:.4f}",
             "latency samples": samples["latency_p50_ms"],
             "latency_p95_ms (recorded only)":
                 f"{metrics['latency_p95_ms']:.4f} ms, "
                 f"{samples['latency_p95_samples_beyond']} samples beyond"}
    if args.trace:
        extra["self ms/query by layer"] = ", ".join(
            f"{name} {value:.3f}" for name, value in ranking if value)
    print(_table(reported, units, extra), file=sys.stderr)
    if outcome.get("invalid"):
        print(f"perfbench: run invalid: {outcome['invalid']}",
              file=sys.stderr)
        print(json.dumps({"record": record}))
        return 3
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": phase.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    if not correct:
        print(f"perfbench: wrong answers for {record['wrong_queries']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
