"""The ``serve-rotowire`` workload: open-loop load on a ``repro serve`` process.

Set-up boots the server (``python -m repro.cli serve``) over the rotowire
lake with two thread lanes and 10 ms of simulated LLM latency, then warms
its plan and answer caches with one closed-loop pass over the rotowire
query list.  The timed phase is open loop: one submitter connection sends
``POST /queries`` on a seeded Poisson schedule (a fixed number of
arrivals, uniformly placed over the run, which is a Poisson process
conditioned on its count) with API tokens drawn from a seeded user pool,
and one poller connection polls every outstanding job every 5 ms, as
``repro loadtest`` does.  Latency runs from when a request was *due* to
when the poller saw it done, so a stalled generator still shows.

A traced run repeats the timed phase against :mod:`perfbench.serve_child`
(the same server over a probed session) and reads its recorder.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchmarks.workloads import WORKLOADS
from repro.datasets import load_lake
from repro.session import Session

from perfbench.common import (AnswerCheck, answer_digest, lake_fingerprints,
                              peak_rss_mb, percentile, seeded_order)
from perfbench.inproc import phase_seconds
from perfbench.layers import layer_metrics

ROOT = Path(__file__).resolve().parents[1]

SERVE_SCALE = 1.0
LANES = 2
LLM_LATENCY_MS = 10.0
#: About half of the 2-client closed-loop capacity measured on a 2-CPU
#: host (35.6 q/s, p50 50 ms), so queues stay short.
RATE_QPS = 17.0
POLL_INTERVAL_S = 0.005
USERS = 8
SETUPS = 3
#: A run is invalid, not slow, when the generator sent its 99th
#: percentile request this late, or this many jobs were still
#: outstanding when the last one was sent.
LAG_LIMIT_MS = 50.0
BACKLOG_LIMIT = 16
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
_PORT = re.compile(r"http://[^:\s]+:(\d+)")


class ServerProcess:
    """One server subprocess: boot, talk, stop (SIGTERM → drain)."""

    def __init__(self, seed: int, scale: float, traced: bool):
        module = "perfbench.serve_child" if traced else "repro.cli"
        command = [sys.executable, "-m", module]
        if not traced:
            command += ["serve", "--dataset", "rotowire", "--port", "0",
                        "--workers", str(LANES),
                        "--llm-latency-ms", f"{LLM_LATENCY_MS:g}"]
        command += ["--seed", str(seed), "--scale", f"{scale:g}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL)
        self.port = self._await_port()

    def _await_port(self) -> int:
        found: list[str] = []
        reader = threading.Thread(
            target=lambda: found.append(self.process.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        match = _PORT.search(found[0]) if found else None
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not come up: {found!r}")
        return int(match.group(1))

    def control(self, command: str) -> str:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


class Connection:
    """One keep-alive HTTP connection that decodes JSON replies."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)

    def request(self, method: str, path: str, body: dict | None = None,
                token: str = "bench") -> tuple[int, dict, float]:
        """(status, decoded body, round-trip seconds)."""
        headers = {"x-api-token": token}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        text = response.read()
        rtt = time.perf_counter() - started
        return response.status, (json.loads(text) if text else {}), rtt

    def counters(self) -> dict:
        return self.request("GET", "/metrics")[1]["counters"]

    def close(self) -> None:
        self.conn.close()


def _closed_loop(port: int, queries) -> list[tuple[str, str]]:
    """Warm-up: each query once, submit then poll to completion.

    Returns each query's answer digest."""
    digests = []
    conn = Connection(port)
    try:
        for query in queries:
            status, body, _ = conn.request("POST", "/queries",
                                           {"query": query})
            if status != 202:
                raise RuntimeError(f"warm-up submit got HTTP {status}")
            job = body["id"]
            while True:
                _, body, _ = conn.request("GET", f"/queries/{job}")
                if body["status"] in ("done", "cancelled"):
                    break
                time.sleep(POLL_INTERVAL_S)
            digests.append((query,
                            answer_digest(body.get("result") or {})))
    finally:
        conn.close()
    return digests


@dataclass
class Request:
    due: float
    query: str
    user: str
    sent: float = 0.0
    submit_s: float = 0.0
    status: int = 0
    job: str | None = None
    polls: int = 0
    poll_s: float = 0.0
    last_poll_s: float = 0.0
    done: float | None = None
    payload: dict = field(default_factory=dict)


def _schedule(seed: int, seconds: float, queries) -> list[Request]:
    rng = random.Random(seed)
    count = max(1, round(RATE_QPS * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    order: list[str] = []
    cycle = 0
    while len(order) < count:
        order += seeded_order(queries, seed * 1000 + cycle)
        cycle += 1
    users = [f"user-{index}" for index in range(USERS)]
    return [Request(due, query, rng.choice(users))
            for due, query in zip(dues, order)]


def _open_loop(port: int, requests: list[Request], seconds: float) -> dict:
    """Send *requests* on schedule; poll until every accepted job ends."""
    outstanding: dict[str, Request] = {}
    lock = threading.Lock()
    submitted = threading.Event()
    state = {"backlog_end": 0}
    start = time.perf_counter() + 0.05

    def submitter() -> None:
        conn = Connection(port)
        try:
            for request in requests:
                delay = start + request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.perf_counter()
                request.status, body, request.submit_s = conn.request(
                    "POST", "/queries", {"query": request.query},
                    token=request.user)
                if request.status == 202:
                    request.job = body["id"]
                    with lock:
                        outstanding[request.job] = request
            with lock:
                state["backlog_end"] = len(outstanding)
        finally:
            conn.close()
            submitted.set()

    def poller() -> None:
        conn = Connection(port)
        deadline = start + seconds + DRAIN_TIMEOUT_S
        try:
            while time.perf_counter() < deadline:
                with lock:
                    pending = list(outstanding.values())
                if not pending and submitted.is_set():
                    return
                for request in pending:
                    _, body, rtt = conn.request("GET",
                                                f"/queries/{request.job}")
                    request.polls += 1
                    request.poll_s += rtt
                    if body.get("status") in ("done", "cancelled"):
                        request.done = time.perf_counter()
                        request.last_poll_s = rtt
                        request.payload = body
                        with lock:
                            del outstanding[request.job]
                time.sleep(POLL_INTERVAL_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=submitter, name="bench-submit"),
               threading.Thread(target=poller, name="bench-poll")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Throughput window: first arrival due → last completion seen.
    finished = [r.done for r in requests if r.done is not None]
    first_due = start + requests[0].due
    window = (max(finished) - first_due) if finished else seconds
    return {"start": start, "window_s": window,
            "backlog_end": state["backlog_end"]}


@dataclass
class ServePhase:
    """What one timed open-loop phase observed (see inproc.Phase)."""

    latencies_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    attempted: int = 0
    answers: int = 0
    correct: int = 0
    errors: int = 0
    refused: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    engine_s: float = 0.0
    serve: dict = field(default_factory=dict)
    invalid: str | None = None
    digests: list[tuple[str, str]] = field(default_factory=list)

    def score(self, check: AnswerCheck) -> None:
        self.correct = sum(check.check(query, digest)
                           for query, digest in self.digests)


def _summarize(requests: list[Request], loop: dict,
               counters: tuple) -> ServePhase:
    phase = ServePhase(elapsed_s=loop["window_s"], attempted=len(requests))
    start = loop["start"]
    lags, waits, runs, overheads = [], [], [], []
    submit_s = poll_s = polls = unattributed = client = 0.0
    for request in requests:
        lag = request.sent - (start + request.due)
        lags.append(1000.0 * lag)
        submit_s += request.submit_s
        poll_s += request.poll_s
        polls += request.polls
        if request.status == 429:
            phase.refused += 1
        if request.done is None:
            continue
        payload = request.payload
        result = payload.get("result") or {}
        phase.answers += 1
        if not payload.get("ok"):
            phase.errors += 1
        phase.digests.append((request.query, answer_digest(result)))
        latency = request.done - (start + request.due)
        wait = payload.get("queue_wait_ms", 0.0) / 1000.0
        run = payload.get("run_ms", 0.0) / 1000.0
        phase.latencies_ms.append(1000.0 * latency)
        waits.append(wait)
        runs.append(run)
        overheads.append(latency - wait - run)
        client += latency
        unattributed += max(0.0, latency - lag - request.submit_s - wait
                            - run - request.last_poll_s)
        trace = result.get("trace") or {}
        phase.engine_s += (trace.get("timings") or {}).get("total", 0.0)
        for span in (trace.get("telemetry") or {}).get("spans", []):
            phase.tokens_in += span.get("token_in", 0)
            phase.tokens_out += span.get("token_out", 0)
    before, after = counters
    n = max(phase.answers, 1)
    lag_p99 = percentile(lags, 99)
    phase.serve = {
        "submit_ms": 1000.0 * submit_s / max(len(requests), 1),
        "poll_ms": 1000.0 * poll_s / max(polls, 1),
        "polls_per_query": polls / n,
        "queue_wait_ms": 1000.0 * sum(waits) / n,
        "run_ms": 1000.0 * sum(runs) / n,
        "engine_ms": 1000.0 * phase.engine_s / n,
        "overhead_ms": 1000.0 * sum(overheads) / n,
        # The closing /metrics request counts itself.
        "http_per_query": (after.get("serve_requests_total", 0)
                           - before.get("serve_requests_total", 0) - 1) / n,
        "rejections_429": (
            after.get("serve_admission_rejections_total", 0)
            - before.get("serve_admission_rejections_total", 0)),
        "backlog_end": loop["backlog_end"],
        "lag_ms": lag_p99,
        "unattributed_share": unattributed / client if client else 0.0,
        "client_s": client,
    }
    if lag_p99 > LAG_LIMIT_MS:
        phase.invalid = (f"load generator fell behind: p99 send lag "
                         f"{lag_p99:.1f} ms > {LAG_LIMIT_MS:g} ms")
    elif loop["backlog_end"] > BACKLOG_LIMIT:
        phase.invalid = (f"backlog grew: {loop['backlog_end']} jobs "
                         f"outstanding at the last arrival > "
                         f"{BACKLOG_LIMIT}")
    return phase


def _timed(server: ServerProcess, queries, opts) -> ServePhase:
    seconds = phase_seconds(opts)
    requests = _schedule(opts.seed, seconds, queries)
    conn = Connection(server.port)
    try:
        before = conn.counters()
        loop = _open_loop(server.port, requests, seconds)
        after = conn.counters()
    finally:
        conn.close()
    return _summarize(requests, loop, (before, after))


def serve_rotowire(opts, expected) -> dict:
    scale = opts.scale or SERVE_SCALE
    queries = list(WORKLOADS["rotowire"])
    warm_digests: list[tuple[str, str]] = []

    def boot(traced: bool) -> tuple[ServerProcess, float]:
        started = time.perf_counter()
        server = ServerProcess(opts.seed, scale, traced)
        try:
            warm_digests.extend(_closed_loop(
                server.port, seeded_order(queries, opts.seed)))
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started

    setup_s: list[float] = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, seconds = boot(traced=False)
            setup_s.append(seconds)
        phase = _timed(server, queries, opts)
    finally:
        if server is not None:
            server.stop()
    lake = load_lake("rotowire", seed=opts.seed, scale=scale)
    check = expected.check(queries=queries, oracle=lambda: Session(lake))
    phase.score(check)
    outcome = {"phase": phase, "setup_s": setup_s, "check": check,
               "fingerprints": lake_fingerprints(lake),
               "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
               "invalid": phase.invalid}
    if opts.trace:
        server, _ = boot(traced=True)
        try:
            server.control("reset")
            traced = _timed(server, queries, opts)
            export = json.loads(server.control("dump"))
        finally:
            server.stop()
        traced.score(check)
        outcome["traced"] = traced
        outcome["invalid"] = outcome["invalid"] or traced.invalid
        outcome["layers"] = layer_metrics(
            export, traced.answers, engine_s=traced.engine_s,
            tokens_in=traced.tokens_in, tokens_out=traced.tokens_out,
            worker_s=LANES * traced.elapsed_s,
            client_s=traced.serve["client_s"], serve=traced.serve)
        outcome["overhead"] = (
            (sum(traced.latencies_ms) / max(len(traced.latencies_ms), 1))
            / (sum(phase.latencies_ms) / max(len(phase.latencies_ms), 1))
            - 1.0)
    # Warm-up answers are answers too: a wrong one fails the run.
    for query, digest in warm_digests:
        check.check(query, digest)
    return outcome
