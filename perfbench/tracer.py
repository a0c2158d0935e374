"""In-memory span recorder that wraps each layer's public entry points.

The program itself carries no benchmark instrumentation: this module
patches the public methods of each layer's classes for the duration of a
traced iteration and restores them afterwards.  Every call (or, for a
generator, every resume) records one span — layer name, start, end,
parent span and iteration id — into parallel typed arrays, and folds its
self time (duration minus the part covered by child spans) into a
per-layer total on the fly, so the layer self times of an iteration sum
exactly to its root span.

Counters are recorded at the same boundaries (calls, items, rows,
ok/blocked outcomes), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench.iteration"


def _unwrap(raw) -> Tuple[Callable, Callable]:
    """The plain function behind a class attribute, and how to turn a
    replacement back into the same kind of attribute."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, lambda fn: fn


class Tracer:
    """Spans and counters of one benchmark process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One span per row, appended when the span ends.
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("i")
        self.iteration_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iteration = 0
        self._next_id = 0
        # Open frames: [span id, name id, start, child seconds].
        self._stack: List[list] = []
        self.self_seconds: Dict[str, float] = {}
        self.inclusive_seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[type, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _name(self, name: str) -> int:
        ix = self._name_ids.get(name)
        if ix is None:
            ix = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_seconds[name] = 0.0
            self.inclusive_seconds[name] = 0.0
        return ix

    def enter(self, name: str) -> list:
        frame = [self._next_id, self._name(name), 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("span exited out of order")
        sid, nid, start, child = frame
        duration = end - start
        name = self.names[nid]
        self.self_seconds[name] += duration - child
        self.inclusive_seconds[name] += duration
        if stack:
            parent = stack[-1]
            parent[3] += duration
            self.parent_id.append(parent[0])
        else:
            self.parent_id.append(-1)
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.iteration_id.append(self.iteration)
        self.start.append(start)
        self.end.append(end)
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        layer: Optional[str],
        on_call: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``, a method of
        a class or a function of a module (no span when ``layer`` is None:
        the call only feeds the hooks).

        ``on_call(args, kwargs)`` and ``on_result(args, result)`` update
        counters outside the span.  A method that returns a lazy
        generator expression (a plane's detection delays) is drained
        inside the span, so the span covers the draws it stands for.
        """
        original, rebind = _unwrap(owner.__dict__[attr])
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if layer is None:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            frame = tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    result = list(result)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patch(owner, attr, rebind(traced))

    def wrap_process(
        self,
        cls: type,
        attr: str,
        layer: str,
        on_call: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
    ) -> None:
        """Record one span per resume of the generator ``cls.attr``
        returns (a simulation process body)."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return tracer._resumes(layer, original(*args, **kwargs), on_return)

        self._patch(cls, attr, traced)

    def _resumes(self, layer: str, gen, on_return):
        """Delegate to ``gen`` one resume at a time, forwarding ``send``,
        ``throw`` and ``close`` so interrupts and deadlines behave as
        without the wrapper."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = self.enter(layer)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                self.exit(frame)
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error = exc
                value = None

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every span: one JSON header line naming the fields and
        layers, then one space-separated ``id parent layer iteration
        start end`` row per span.  Returns the span count."""
        with open(path, "w") as out:
            out.write(json.dumps({
                "fields": ["id", "parent", "layer", "iteration", "start_s", "end_s"],
                "layers": self.names,
            }) + "\n")
            names = self.names
            for row in zip(self.span_id, self.parent_id, self.name_id,
                           self.iteration_id, self.start, self.end):
                out.write("%d %d %s %d %.9f %.9f\n" % (
                    row[0], row[1], names[row[2]], row[3], row[4], row[5]))
        return len(self.span_id)
