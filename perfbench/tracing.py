"""Spans and counters recorded from the benchmark's side of each call.

The traced run wraps the package's public functions where the pipeline
looks them up (``scribo.cli`` for ``transcribe``'s stages, ``scribo.net``
for the calls ``load_weights`` and ``forward_streaming`` make inside)
and records one span per call: name, start, end, parent span and clip
id.  Spans stay in memory and are written out when the run ends.  The
package itself is not modified; tracing inside it is a later change.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    clip: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced run: calls go straight through, nothing is recorded."""

    enabled = False
    clip = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self, targets):
        yield


class Tracer:
    """Records a span around every call made through ``call`` or a wrapper."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.clip: str | None = None
        # clip id -> [seconds in the cyclic garbage collector, full collections]
        self.gc_stats: dict[str | None, list] = {}
        self._gc_start = 0.0

    def call(self, name, fn, *args, info=None, **kwargs):
        span = Span(len(self.spans), name, 0.0, parent=self._stack[-1] if self._stack else None,
                    clip=self.clip)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def wrapper(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, info=info, **kwargs)
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        st = self.gc_stats.setdefault(self.clip, [0.0, 0])
        st[0] += time.perf_counter() - self._gc_start
        st[1] += info["generation"] == 2

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers on (module, attribute, span name, info) targets,
        and time the garbage collector, until the block ends."""
        saved = []
        gc.callbacks.append(self._on_gc)
        try:
            for module, attr, name, info in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrapper(name, original, info))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            gc.callbacks.remove(self._on_gc)

    def select(self, name, clips=None):
        return [s for s in self.spans if s.name == name and (clips is None or s.clip in clips)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "clip": s.clip,
                                     **({"info": s.info} if s.info else {})}) + "\n")


class LmProxy:
    """Stands in for an NgramModel as ``DecodeParams.lm`` and counts calls.

    Per clip it records the number of ``score_word`` calls, the number
    of distinct (history, word) keys among them (the calls a memo could
    not save) and the time spent inside the model.
    """

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self.order = model.order
        self.stats: dict[str | None, dict] = {}
        # Only the current clip's keys are held: sets of thousands of
        # tuples kept per clip would grow the heap the garbage collector
        # walks during later decodes, and slow them.
        self._keys: set = set()

    def score_word(self, history, word):
        st = self.stats.get(self._tracer.clip)
        if st is None:
            self._keys = set()
            st = self.stats[self._tracer.clip] = {"calls": 0, "seconds": 0.0, "distinct": 0}
        st["calls"] += 1
        key = (tuple(history), word)
        if key not in self._keys:
            self._keys.add(key)
            st["distinct"] += 1
        t0 = time.perf_counter()
        score = self._model.score_word(history, word)
        st["seconds"] += time.perf_counter() - t0
        return score

    def end_clip(self) -> None:
        self._keys = set()
