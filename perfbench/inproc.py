"""The in-process workloads: ``cold-vision`` and ``warm-relational``.

Both drive the system through :class:`~repro.session.Session` only.  A
run sets up (lake + session + any warm-up) several times and keeps the
last set-up for the timed phase; a traced run then repeats the timed
phase on a session composed of :mod:`perfbench.probes` parts.  Answers
are digested as they arrive and checked after the clock stops; the
oracle, when one is needed, runs after the peak-RSS reading so every seed
measures the same process.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.benchmarks.workloads import RELATIONAL_WORKLOADS, WORKLOADS
from repro.datasets import load_lake
from repro.llm.brain import SimulatedBrain
from repro.session import Session

from perfbench import probes
from perfbench.common import (AnswerCheck, answer_digest, lake_fingerprints,
                              peak_rss_mb, seeded_order)
from perfbench.layers import layer_metrics


@dataclass
class Phase:
    """What one timed phase observed."""

    latencies_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    answers: int = 0
    correct: int = 0
    errors: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    engine_s: float = 0.0
    client_s: float = 0.0
    worker_s: float = 0.0
    digests: list[tuple[str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.answers

    def fold(self, query: str, result) -> None:
        self.answers += 1
        if not result.ok:
            self.errors += 1
        self.digests.append((query, answer_digest(result.to_dict())))
        telemetry = result.telemetry
        self.tokens_in += telemetry.token_in
        self.tokens_out += telemetry.token_out
        self.engine_s += result.trace.timings.get("total", 0.0)

    def score(self, check: AnswerCheck) -> None:
        self.correct = sum(check.check(query, digest)
                           for query, digest in self.digests)

    def layers(self, recorder: probes.Recorder) -> dict:
        return layer_metrics(recorder.export(), self.answers,
                             engine_s=self.engine_s,
                             tokens_in=self.tokens_in,
                             tokens_out=self.tokens_out,
                             worker_s=self.worker_s,
                             client_s=self.client_s)


def phase_seconds(opts) -> float:
    """Length of each timed phase: a traced run splits ``--seconds``
    between its untraced reference phase and its traced phase, so it
    costs about what an untraced run costs."""
    return opts.seconds / 2 if opts.trace else opts.seconds


def _finish(phase: Phase, setup_s: list[float], fingerprints: dict,
            check_of) -> dict:
    """Read peak RSS, then build the answer check and score the phase."""
    outcome = {"phase": phase, "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb(), "fingerprints": fingerprints}
    outcome["check"] = check_of()
    phase.score(outcome["check"])
    return outcome


def _traced(outcome: dict, traced: Phase, recorder: probes.Recorder) -> None:
    phase = outcome["phase"]
    traced.score(outcome["check"])
    outcome["traced"] = traced
    outcome["layers"] = traced.layers(recorder)
    # Cost per correct answer, traced over untraced, minus one.
    outcome["overhead"] = ((phase.correct / phase.elapsed_s)
                           / (traced.correct / traced.elapsed_s) - 1.0
                           if traced.correct else float("nan"))


# ----------------------------------------------------------------------
# cold-vision
# ----------------------------------------------------------------------

COLD_SCALE = 10.0
COLD_WORKERS = 2
COLD_LLM_LATENCY_S = 0.010
#: A cold set-up is a lake and a session (~0.08 s), and one set-up's time
#: moves by up to 40% with the host's speed, in streaks of a fraction of a
#: second to seconds; so set-ups are taken in groups of this many before
#: every pass and after the last one, and the median samples the whole
#: run rather than one moment of it.
COLD_SETUPS_PER_GROUP = 12
#: Passes per untraced phase at least: the two callers' race over
#: duplicate work makes one pass's time vary by about 10%.
COLD_MIN_PASSES = 2


def cold_vision(opts, expected) -> dict:
    """Fresh lake + fresh session per pass; two callers per question.

    A pass issues the artwork list (seeded order, a new order per pass)
    with every question twice, back to back, through the thread backend
    with two workers, so both workers take the same question at about
    the same time.  Whole passes run until the phase's seconds are
    measured, and at least :data:`COLD_MIN_PASSES` of them in an
    untraced phase.
    """
    scale = opts.scale or COLD_SCALE
    setup_s: list[float] = []

    def setup(recorder=None) -> Session:
        gc.collect()
        started = time.perf_counter()
        lake = load_lake("artwork", seed=opts.seed, scale=scale)
        brain = SimulatedBrain(latency_seconds=COLD_LLM_LATENCY_S)
        if recorder is None:
            session = Session(lake, brain=brain)
            setup_s.append(time.perf_counter() - started)
        else:
            session = Session(lake, **probes.session_parts(brain, recorder))
        return session

    def setup_group() -> None:
        # Set-ups that only feed the set-up median; a pass makes its own.
        for _ in range(COLD_SETUPS_PER_GROUP - 1):
            setup().close()

    def timed(recorder=None) -> Phase:
        phase = Phase()
        seconds = phase_seconds(opts)
        min_passes = 1 if opts.trace else COLD_MIN_PASSES
        passes = 0
        while True:
            if recorder is None:
                setup_group()
            session = setup(recorder)
            if "lake" not in fingerprints:
                fingerprints["lake"] = lake_fingerprints(session.lake)
            order = seeded_order(WORKLOADS["artwork"],
                                 opts.seed * 1000 + passes)
            doubled = [query for query in order
                       for _ in range(COLD_WORKERS)]
            started = time.perf_counter()
            report = session.batch(doubled, workers=COLD_WORKERS,
                                   backend="thread")
            elapsed = time.perf_counter() - started
            session.close()
            passes += 1
            phase.elapsed_s += elapsed
            phase.worker_s += COLD_WORKERS * elapsed
            phase.client_s += COLD_WORKERS * elapsed
            for query, result in zip(doubled, report.results):
                phase.fold(query, result)
                phase.latencies_ms.append(
                    1000.0 * result.trace.timings.get("total", 0.0))
            # Free this pass's lake and rasters before the next set-up,
            # so peak RSS does not depend on the number of passes.
            session = report = result = None
            if phase.elapsed_s >= seconds and passes >= min_passes:
                return phase

    fingerprints: dict = {}
    phase = timed()
    for _ in range(COLD_SETUPS_PER_GROUP):
        setup().close()
    outcome = _finish(phase, setup_s, fingerprints["lake"],
                      lambda: expected.check(
                          queries=WORKLOADS["artwork"],
                          oracle=lambda: Session(load_lake(
                              "artwork", seed=opts.seed, scale=scale))))
    if opts.trace:
        recorder = probes.Recorder()
        with probes.patched_modules(recorder):
            traced = timed(recorder)
        _traced(outcome, traced, recorder)
    return outcome


# ----------------------------------------------------------------------
# warm-relational
# ----------------------------------------------------------------------

WARM_SCALE = 500.0
WARM_SETUPS = 3


def warm_relational(opts, expected) -> dict:
    """Serial single caller over a warmed scale-500 artwork lake."""
    scale = opts.scale or WARM_SCALE
    queries = list(RELATIONAL_WORKLOADS["artwork"])
    setup_s: list[float] = []

    def warm(session: Session) -> Session:
        for query in queries:
            session.query(query)
        return session

    def timed(session: Session) -> Phase:
        phase = Phase()
        cycle = 0
        seconds = phase_seconds(opts)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for query in seeded_order(queries, opts.seed * 1000 + cycle):
                begun = time.perf_counter()
                result = session.query(query)
                latency = time.perf_counter() - begun
                phase.latencies_ms.append(1000.0 * latency)
                phase.client_s += latency
                # Digested now, so results do not pile up on the heap.
                phase.fold(query, result)
            cycle += 1
        # One serial caller: the phase lasts as long as it waited on the
        # system; the benchmark's own bookkeeping is left out.
        phase.elapsed_s = phase.worker_s = phase.client_s
        return phase

    for _ in range(WARM_SETUPS):
        lake = session = None
        gc.collect()
        started = time.perf_counter()
        lake = load_lake("artwork", seed=opts.seed, scale=scale)
        session = warm(Session(lake))
        setup_s.append(time.perf_counter() - started)
    phase = timed(session)
    session.close()
    outcome = _finish(phase, setup_s, lake_fingerprints(lake),
                      lambda: expected.check(queries=queries,
                                             oracle=lambda: Session(lake)))
    if opts.trace:
        recorder = probes.Recorder()
        with probes.patched_modules(recorder):
            session = warm(Session(
                lake, **probes.session_parts(SimulatedBrain(), recorder)))
            recorder.reset()
            traced = timed(session)
        session.close()
        _traced(outcome, traced, recorder)
    return outcome
