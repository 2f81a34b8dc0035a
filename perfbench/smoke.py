#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

From the repository root.  Checks, at tiny lake sizes and 1-second runs:

1. every workload, untraced and traced, exits 0 with a correct result
   line that carries exactly the ``BENCHMARK.json`` metrics of that mode,
   each with its declared unit and a finite value;
2. the correctness check fires: an expected-answers file with one digest
   tampered makes the run exit 1 with ``"correct": false``;
3. ``perfbench/layers.json`` maps every per-layer metric, and only to
   declared end-to-end metrics and workloads;
4. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   program) makes the run fail without printing a result line.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Lake scales small enough that each run takes a few seconds.
TINY = {"cold-vision": 0.1, "warm-relational": 0.5, "serve-rotowire": 0.3}
TIMEOUT_S = 180


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _tiny(workload: str, trace: int, *extra: str) -> list[str]:
    return ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", str(TINY[workload]), *extra]


def _result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if "correct" in result else None


def check_metrics(spec: dict, failures: list[str]) -> None:
    for workload in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = _run(_tiny(workload, trace))
            result = _result(proc)
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-1500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: not a correct run: {result}")
            declared = {entry["name"]: entry["unit"]
                        for entry in spec[section]}
            metrics = result["metrics"]
            if set(metrics) != set(declared):
                failures.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(declared) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(declared))}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if metric.get("unit") != declared.get(name):
                    failures.append(f"{label}: {name} unit "
                                    f"{metric.get('unit')!r}")
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    failures.append(f"{label}: {name} value {value!r}")
            print(f"ok  {label}: {len(metrics)} metrics", flush=True)


def check_layer_map(spec: dict, failures: list[str]) -> None:
    """layers.json maps every per-layer metric exactly once."""
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for entry in layers["layers"] for name in entry["metrics"]]
    declared = [entry["name"] for entry in spec["per_layer"]]
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    workloads = {entry["name"] for entry in spec["workloads"]}
    if sorted(mapped) != sorted(declared):
        failures.append(f"layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(mapped) ^ set(declared))}")
    for entry in layers["layers"]:
        for move in entry["moves"]:
            if move["metric"] not in end_to_end \
                    or move["workload"] not in workloads:
                failures.append(f"layers.json {entry['layer']}: {move}")
    print(f"ok  layer map covers {len(mapped)} per-layer metrics", flush=True)


def check_tampered_answer(failures: list[str]) -> None:
    workload = "warm-relational"
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-",
                                     dir=ROOT) as scratch:
        path = Path(scratch) / "expected.json"
        proc = _run(_tiny(workload, 0, "--write-expected", str(path)))
        if proc.returncode != 0 or not path.exists():
            failures.append(f"writing expected answers failed:\n"
                            f"{proc.stderr[-1500:]}")
            return
        proc = _run(_tiny(workload, 0, "--expected", str(path)))
        if proc.returncode != 0:
            failures.append("an untampered expected file was rejected:\n"
                            + proc.stderr[-1500:])
        payload = json.loads(path.read_text())
        query = sorted(payload["answers"])[0]
        payload["answers"][query]["digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        proc = _run(_tiny(workload, 0, "--expected", str(path)))
        result = _result(proc)
        if proc.returncode != 1 or result is None or result["correct"] \
                or result["failed"] < 1:
            failures.append(f"a tampered expected answer was not caught: "
                            f"exit {proc.returncode}, result {result}")
        else:
            print(f"ok  tampered answer caught ({result['failed']} failed)",
                  flush=True)


def check_bare_directory(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-",
                                     dir=ROOT) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "warm-relational", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or _result(proc) is not None:
            failures.append("the benchmark ran without the program: "
                            f"exit {proc.returncode}")
        else:
            print(f"ok  bare directory fails (exit {proc.returncode})",
                  flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_layer_map(spec, failures)
    check_metrics(spec, failures)
    check_tampered_answer(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
