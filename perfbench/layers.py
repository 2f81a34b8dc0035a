"""Per-layer metrics of a traced phase, from a :class:`probes.Recorder` export.

Times are milliseconds per completed query and counts are per completed
query, so runs of different length compare.  ``*_self_ms`` and the
vision / relational / data / cache / llm times are *self* times (nested
probe spans subtracted); ``operator.<key>.ms`` and ``engine.query_ms``
are inclusive.
"""

from __future__ import annotations

from perfbench.probes import OPERATOR_KEYS

#: Layer groups ranked by self time in the per-layer table.
GROUPS = ("vision", "relational", "data", "llm", "planner", "mapper",
          "operator", "answer_cache", "plan_cache", "engine", "serve")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(export: dict, queries: int, *, engine_s: float,
                  tokens_in: int, tokens_out: int, worker_s: float,
                  client_s: float, serve: dict | None = None) -> dict:
    """Every per-layer metric of one traced phase.

    *engine_s* sums the engine's own per-query wall clock
    (``trace.timings["total"]``), *worker_s* is the worker capacity of
    the phase (workers × elapsed), and *client_s* sums what callers
    waited.  *serve* carries the client-side serve measurements; it is
    ``None`` for in-process workloads.
    """
    n = max(queries, 1)
    self_s = export["self_s"]
    total_s = export["total_s"]
    calls = export["calls"]
    counts = export["counts"]
    distinct = export["distinct"]

    def ms(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / n

    def per_query(value: float) -> float:
        return value / n

    answer_hits = counts.get("answer_cache.hits", 0)
    answer_misses = counts.get("answer_cache.misses", 0)
    plan_hits = counts.get("plan_cache.hits", 0)
    plan_misses = counts.get("plan_cache.misses", 0)
    engine_self_s = max(engine_s - export["top_s"], 0.0)
    values = {
        "vision.raster_ms": ms("vision.raster"),
        "vision.raster_calls": per_query(calls.get("vision.raster", 0)),
        "vision.answer_ms": ms("vision.answer"),
        "vision.select_ms": ms("vision.select"),
        "vision.detect_calls": per_query(
            counts.get("vision.detect_calls", 0)),
        "vision.detect_calls_per_image": _ratio(
            counts.get("vision.detect_calls", 0),
            distinct.get("vision.images", 0)),
        "answer_cache.lookups": per_query(answer_hits + answer_misses),
        "answer_cache.hit_ratio": _ratio(answer_hits,
                                         answer_hits + answer_misses),
        "answer_cache.get_ms": ms("answer_cache.get"),
        "answer_cache.put_ms": ms("answer_cache.put"),
        "answer_cache.duplicate_misses": per_query(
            counts.get("answer_cache.duplicate_misses", 0)),
        "plan_cache.hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "plan_cache.duplicate_misses": per_query(
            counts.get("plan_cache.duplicate_misses", 0)),
        "llm.calls": per_query(calls.get("llm", 0)),
        "llm.busy_ms": ms("llm"),
        "llm.tokens_in": per_query(tokens_in),
        "llm.tokens_out": per_query(tokens_out),
        "planner.discover_self_ms": ms("planner.discover"),
        "planner.plan_self_ms": ms("planner.plan"),
        "planner.plan_calls": per_query(calls.get("planner.plan", 0)),
        "mapper.map_self_ms": ms("mapper.map"),
        "mapper.calls": per_query(calls.get("mapper.map", 0)),
        "relational.colexec_ms": ms("relational.colexec"),
        "relational.colexec_calls": per_query(
            calls.get("relational.colexec", 0)),
        "relational.colexec_declines": per_query(
            counts.get("relational.colexec_declines", 0)),
        "relational.sqlite_ms": ms("relational.sqlite"),
        "relational.sqlite_calls": per_query(
            calls.get("relational.sqlite", 0)),
        "data.sample_values_ms": ms("data.sample_values"),
        "data.sample_values_calls": per_query(
            calls.get("data.sample_values", 0)),
        "engine.query_ms": 1000.0 * engine_s / n,
        "engine.self_ms": 1000.0 * engine_self_s / n,
        "exec.worker_busy_share": _ratio(engine_s, worker_s),
    }
    for key in sorted(set(OPERATOR_KEYS.values())):
        name = f"operator.{key}"
        values[f"{name}.ms"] = 1000.0 * total_s.get(name, 0.0) / n
        values[f"{name}.calls"] = per_query(calls.get(name, 0))

    # Self time by layer group, for the "where did the time go" ranking.
    groups = dict.fromkeys(GROUPS, 0.0)
    for span, seconds in self_s.items():
        group = span.split(".", 1)[0]
        if group in groups:
            groups[group] += 1000.0 * seconds / n
    groups["engine"] = 1000.0 * engine_self_s / n

    serve = serve or {}
    values.update({
        "serve.submit_ms": serve.get("submit_ms", 0.0),
        "serve.poll_ms": serve.get("poll_ms", 0.0),
        "serve.poll_requests_per_query": serve.get("polls_per_query", 0.0),
        "serve.queue_wait_ms": serve.get("queue_wait_ms", 0.0),
        "serve.run_ms": serve.get("run_ms", 0.0),
        "serve.engine_ms": serve.get("engine_ms", 0.0),
        "serve.overhead_ms": serve.get("overhead_ms", 0.0),
        "serve.http_requests_per_query": serve.get("http_per_query", 0.0),
        "serve.rejections_429": serve.get("rejections_429", 0.0),
        "serve.backlog_end": serve.get("backlog_end", 0.0),
        "loadgen.lag_ms": serve.get("lag_ms", 0.0),
    })
    if serve:
        # Client time outside the server's run: HTTP, admission, queue
        # wait and polling.
        groups["serve"] = serve["queue_wait_ms"] + serve["overhead_ms"]
        values["unattributed_share"] = serve["unattributed_share"]
    else:
        # Every probe span nests inside the engine's query, so the
        # engine's wall clock is the time some layer accounts for.
        values["unattributed_share"] = _ratio(client_s - engine_s, client_s)
    declines = {name.split(":", 1)[1]: count
                for name, count in counts.items()
                if name.startswith("relational.decline:")}
    return {"metrics": values, "self_ms_by_layer": groups,
            "colexec_declines_by_reason": declines}
