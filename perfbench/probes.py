"""Layer probes for the traced run: timing wrappers around public entry points.

Nothing here edits program code.  A traced run composes a
:class:`~repro.session.Session` out of wrapped parts — the
:class:`~repro.llm.interface.LanguageModel`, the planner / mapper /
executor roles, and the two caches — and the wrapped executor swaps the
:class:`~repro.operators.base.ExecutionContext` vision model and sqlite
bridge for timed stand-ins.  Three module-level functions that no role
reaches (the colexec entry points, the rasterizer and
``Table.sample_values``) are wrapped for the duration of the traced phase
by :func:`patched_modules` and restored afterwards.

Every wrapper records into one :class:`Recorder`: per-thread span stacks,
so a layer's *self* time is its span minus the spans nested in it, plus
plain counters.  The untraced run uses none of this.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict

from repro.core.answer_cache import MISS, AnswerCache
from repro.core.batch import PlanCache
from repro.core.interfaces import (PromptMapper, PromptPlanner,
                                   RegistryExecutor)
from repro.vision.blip import Blip2Sim

#: Registry operator names → the short keys of ``operator.<key>.*``.
OPERATOR_KEYS = {
    "sql": "sql",
    "join": "join",
    "visual question answering": "vqa",
    "image select": "image_select",
    "text question answering": "text_qa",
    "plot": "plot",
}


def operator_key(name: str) -> str:
    return OPERATOR_KEYS.get(name.strip().lower(), "other")


class _Span:
    __slots__ = ("recorder", "name", "start", "child")

    def __init__(self, recorder: "Recorder", name: str):
        self.recorder = recorder
        self.name = name
        self.child = 0.0

    def __enter__(self) -> "_Span":
        self.recorder._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self.start
        stack = self.recorder._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        self.recorder._close(self.name, duration, duration - self.child,
                             top=not stack)


class Recorder:
    """Span and counter sink shared by every probe of one traced phase."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.total_s: dict[str, float] = defaultdict(float)
            self.self_s: dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            self.counts: Counter = Counter()
            #: time inside outermost spans — what the engine delegated.
            self.top_s = 0.0
            self._seen: dict[str, set] = defaultdict(set)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, duration: float, own: float,
               top: bool) -> None:
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += own
            self.calls[name] += 1
            if top:
                self.top_s += duration

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def first_time(self, name: str, key: object) -> bool:
        """Whether *key* is new in set *name* (and remember it)."""
        with self._lock:
            seen = self._seen[name]
            if key in seen:
                return False
            seen.add(key)
            return True

    def export(self) -> dict:
        """JSON-ready copy of everything recorded."""
        with self._lock:
            return {"total_s": dict(self.total_s), "self_s": dict(self.self_s),
                    "calls": dict(self.calls), "counts": dict(self.counts),
                    "top_s": self.top_s,
                    "distinct": {k: len(v) for k, v in self._seen.items()}}


# ----------------------------------------------------------------------
# Role and cache wrappers (composed into the Session)
# ----------------------------------------------------------------------

class TimedModel:
    """A :class:`LanguageModel` that times each ``complete`` round trip."""

    def __init__(self, inner, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name
        cost_model = getattr(inner, "cost_model", None)
        if cost_model is not None:
            # Same token/cost accounting as the unwrapped model.
            self.cost_model = cost_model

    def complete(self, messages):
        with self.recorder.span("llm"):
            return self.inner.complete(messages)


class TimedPlanner:
    def __init__(self, inner: PromptPlanner, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def discover(self, lake, query, transcript):
        with self.recorder.span("planner.discover"):
            return self.inner.discover(lake, query, transcript)

    def plan(self, lake, query, hints, transcript, **kwargs):
        with self.recorder.span("planner.plan"):
            return self.inner.plan(lake, query, hints, transcript, **kwargs)

    def analyze_error(self, query, plan, step, error, transcript):
        with self.recorder.span("planner.error"):
            return self.inner.analyze_error(query, plan, step, error,
                                            transcript)


class TimedMapper:
    def __init__(self, inner: PromptMapper, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def map_step(self, *args, **kwargs):
        with self.recorder.span("mapper.map"):
            return self.inner.map_step(*args, **kwargs)


class TimedBlip(Blip2Sim):
    """The vision model with its inference entry points timed."""

    def __init__(self, inner: Blip2Sim, recorder: Recorder):
        super().__init__(tolerance=inner.tolerance, min_area=inner.min_area,
                         miss_probability=inner.miss_probability)
        self.recorder = recorder

    def detect(self, image):
        self.recorder.count("vision.detect_calls")
        self.recorder.first_time("vision.images", id(image))
        return super().detect(image)

    def answer(self, image, question):
        with self.recorder.span("vision.answer"):
            return super().answer(image, question)

    def matches_description(self, image, description):
        with self.recorder.span("vision.select"):
            return super().matches_description(image, description)


class TimedBridge:
    """The engine's sqlite bridge with ``execute`` timed."""

    def __init__(self, inner, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def execute(self, *args, **kwargs):
        with self.recorder.span("relational.sqlite"):
            return self.inner.execute(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimedExecutor:
    """Times each operator run, keyed by ``StepExecution.operator``."""

    def __init__(self, inner: RegistryExecutor, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def cards(self):
        return self.inner.cards()

    def execute(self, decision, context):
        if not isinstance(context.vision_model, TimedBlip):
            context.vision_model = TimedBlip(context.vision_model,
                                             self.recorder)
        if (context.sql_bridge is not None
                and not isinstance(context.sql_bridge, TimedBridge)):
            context.sql_bridge = TimedBridge(context.sql_bridge,
                                             self.recorder)
        span = self.recorder.span("operator.other")
        with span:
            execution = self.inner.execute(decision, context)
            span.name = f"operator.{operator_key(execution.operator)}"
        return execution


class _TimedCacheMixin:
    """Lookup/insert timing plus hit and duplicate-miss counting."""

    layer = ""

    def __init__(self, recorder: Recorder):
        super().__init__()
        self.recorder = recorder

    def _lookup(self, key, fetch, missed):
        recorder = self.recorder
        with recorder.span(f"{self.layer}.get"):
            value = fetch(key)
        if missed(value):
            recorder.count(f"{self.layer}.misses")
            if not recorder.first_time(f"{self.layer}.missed_keys", key):
                recorder.count(f"{self.layer}.duplicate_misses")
        else:
            recorder.count(f"{self.layer}.hits")
        return value

    def _insert(self, key, value, store) -> None:
        with self.recorder.span(f"{self.layer}.put"):
            store(key, value)


class TimedAnswerCache(_TimedCacheMixin, AnswerCache):
    layer = "answer_cache"

    def get(self, key):
        return self._lookup(key, super().get, lambda value: value is MISS)

    def put(self, key, answer) -> None:
        self._insert(key, answer, super().put)


class TimedPlanCache(_TimedCacheMixin, PlanCache):
    layer = "plan_cache"

    def get(self, key):
        return self._lookup(key, super().get, lambda value: value is None)

    def put(self, key, plan) -> None:
        self._insert(key, plan, super().put)


def session_parts(brain, recorder: Recorder) -> dict:
    """Keyword arguments for a :class:`Session` built from timed parts."""
    model = TimedModel(brain, recorder)
    return {"brain": model,
            "planner": TimedPlanner(PromptPlanner(model), recorder),
            "mapper": TimedMapper(PromptMapper(model), recorder),
            "executor": TimedExecutor(RegistryExecutor(), recorder),
            "plan_cache": TimedPlanCache(recorder),
            "answer_cache": TimedAnswerCache(recorder)}


# ----------------------------------------------------------------------
# Module-level entry points no role reaches
# ----------------------------------------------------------------------

def _timed(recorder: Recorder, name: str, function):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)
    wrapper.__wrapped__ = function
    return wrapper


def _timed_colexec(recorder: Recorder, function, unsupported):
    def wrapper(*args, **kwargs):
        with recorder.span("relational.colexec"):
            try:
                return function(*args, **kwargs)
            except unsupported as exc:
                recorder.count("relational.colexec_declines")
                recorder.count(f"relational.decline:{exc}"[:160])
                raise
    wrapper.__wrapped__ = function
    return wrapper


@contextlib.contextmanager
def patched_modules(recorder: Recorder):
    """Wrap colexec, the rasterizer and ``Table.sample_values`` in spans."""
    from repro.data.table import Table
    from repro.relational import colexec
    from repro.vision import renderer

    saved = [(colexec, "execute", colexec.execute),
             (colexec, "join_tables", colexec.join_tables),
             (renderer, "render_scene", renderer.render_scene),
             (Table, "sample_values", Table.sample_values)]
    colexec.execute = _timed_colexec(recorder, colexec.execute,
                                     colexec.UnsupportedSQL)
    colexec.join_tables = _timed_colexec(recorder, colexec.join_tables,
                                         colexec.UnsupportedSQL)
    renderer.render_scene = _timed(recorder, "vision.raster",
                                   renderer.render_scene)
    Table.sample_values = _timed(recorder, "data.sample_values",
                                 Table.sample_values)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
