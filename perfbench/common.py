"""Shared pieces of the benchmark: answers, expected results, statistics.

An *answer digest* is the sha256 of a result's answer fields
(``kind``/``value``/``table``/``plot``/``error`` of
``QueryResult.to_dict()``), so an in-process result and the same result
decoded from a ``repro serve`` job payload digest identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The seed whose expected answers are committed under ``expected/``;
#: any other seed is checked against a serial fresh-session oracle.
PINNED_SEED = 0

_ANSWER_FIELDS = ("kind", "value", "table", "plot", "error")


def answer_digest(result_dict: dict) -> str:
    answer = {key: result_dict.get(key) for key in _ANSWER_FIELDS}
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_preview(result_dict: dict) -> str:
    """A short human-readable form of an answer, for expected files."""
    kind = result_dict.get("kind")
    if kind == "value":
        return f"value {result_dict.get('value')!r}"[:120]
    if kind == "error":
        return f"error {result_dict.get('error')!r}"[:120]
    columns = (result_dict.get("table") or {}).get("columns") or {}
    rows = max((len(values) for values in columns.values()), default=0)
    return f"{kind}: {rows} rows of {sorted(columns)}"[:120]


def seeded_order(queries, seed: int) -> list[str]:
    order = list(queries)
    random.Random(seed).shuffle(order)
    return order


class AnswerCheck:
    """Compares every answer with the expected digest of its query."""

    def __init__(self, expected: dict[str, str], source: str):
        self.expected = expected
        self.source = source
        self.checked = 0
        self.wrong: list[str] = []

    def check(self, query: str, digest: str) -> bool:
        self.checked += 1
        if self.expected.get(query) != digest:
            self.wrong.append(query)
            return False
        return True


class Expected:
    """Where a run's expected answers come from.

    At :data:`PINNED_SEED` and the workload's own scale they are the
    committed ``expected/<workload>.json``; otherwise a serial pass of a
    fresh oracle session computes them, outside the timed phase.  *path* forces a
    file; *write_path* records the oracle's answers as a new file.
    """

    def __init__(self, workload: str, seed: int, default_scale: bool,
                 path: str | None = None, write_path: str | None = None):
        self.workload = workload
        self.seed = seed
        if (path is None and write_path is None and default_scale
                and seed == PINNED_SEED):
            path = str(EXPECTED_DIR / f"{workload}.json")
        self.path = path
        self.write_path = write_path
        self.oracle_s = 0.0

    def check(self, queries, oracle) -> AnswerCheck:
        """An :class:`AnswerCheck` for *queries*; *oracle* builds the
        fresh session used when no expected file applies."""
        if self.path is not None:
            return AnswerCheck(self._load(queries), self.path)
        started = time.perf_counter()
        session = oracle()
        try:
            results = {query: session.query(query).to_dict()
                       for query in dict.fromkeys(queries)}
        finally:
            session.close()
        self.oracle_s = time.perf_counter() - started
        if self.write_path is not None:
            self._write(session.lake, results)
        return AnswerCheck({query: answer_digest(result)
                            for query, result in results.items()}, "oracle")

    def _load(self, queries) -> dict[str, str]:
        payload = json.loads(Path(self.path).read_text(encoding="utf-8"))
        answers = {query: entry["digest"]
                   for query, entry in payload["answers"].items()}
        missing = [query for query in queries if query not in answers]
        if missing:
            raise ValueError(f"{self.path}: no expected answer for "
                             f"{missing}")
        return answers

    def _write(self, lake, results: dict[str, dict]) -> None:
        from repro.benchmarks.workloads import WORKLOAD_VERSION
        payload = {
            "workload": self.workload, "seed": self.seed,
            "workload_version": WORKLOAD_VERSION,
            "lake": lake_fingerprints(lake),
            "answers": {query: {"digest": answer_digest(result),
                                "preview": answer_preview(result)}
                        for query, result in results.items()}}
        path = Path(self.write_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")


def lake_fingerprints(lake) -> dict:
    """Shape fingerprint plus a digest of every non-modality cell."""
    digest = hashlib.sha256()
    for name in sorted(lake.source_names):
        table = lake.table(name)
        for column in table.column_names:
            if table.dtype(column).is_modality:
                continue
            digest.update(f"{name}.{column}".encode("utf-8"))
            digest.update(repr(table.column(column)).encode("utf-8"))
    return {"shape": lake.fingerprint(),
            "relational_content": digest.hexdigest()[:16]}


def environment() -> dict:
    import numpy
    from repro.benchmarks.workloads import WORKLOAD_VERSION
    return {"cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "workload_version": WORKLOAD_VERSION,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED")}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_median(samples, windows: int = 5,
                    min_window: int = 50) -> float:
    """Median of the medians of consecutive equal windows of *samples*.

    Up to *windows* windows of at least *min_window* samples each (one
    window — the plain median — when there are fewer samples), so a few
    seconds of host noise move one window's median, not the result.
    """
    count = max(1, min(windows, len(samples) // min_window))
    size = len(samples) // count
    return statistics.median(
        statistics.median(samples[index * size:(index + 1) * size])
        for index in range(count))


def beyond(samples, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0
