"""Per-layer tracing from outside the package.

`Tracer.install` replaces each public function in `TRACED` with a timing
wrapper, in the module that defines it and in every package module that
re-binds it with `from .x import y`.  Each call records a span: name,
start, end, busy time, parent span, op id, the exception type that left
it, if any, and a note taken from its result.  `iter_minor_layers` is a
generator; its span is busy only inside its `next()` calls, and its note
counts the minors it yielded.  Spans stay in memory until `summary`
reduces them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Optional

TRACED = {
    "cli": ("main",),
    "core": ("parse_matrix", "format_matrix", "iter_minor_layers", "det", "rank", "matmul"),
    "echelon": ("is_upper_echelon", "is_lower_echelon", "in_class_L", "in_class_U"),
    "mclass": ("greedy_leaders", "in_class_M", "detect_class"),
    "explicit": ("explicit_decompose", "reconstruct_lu"),
    "neville": ("neville_decompose", "format_trace"),
    "tnn": ("is_tnn",),
    "identities": ("selftest",),
}

# Span record fields.
NAME, START, END, BUSY, PARENT, OP, RAISED, NOTE = range(8)


def _note(name: str, result) -> Optional[object]:
    """What a span keeps of its function's result."""
    if name == "mclass.in_class_M":
        return bool(result)
    if name == "tnn.is_tnn":
        return result.is_tnn
    if name == "neville.neville_decompose":
        moves = result[1].moves
        deletes = sum(1 for move in moves if type(move).__name__ == "DeleteRow")
        return (len(moves) - deletes, deletes)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, 0, parent, self.op, None, None])
        return len(self.spans) - 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            else:
                span[NOTE] = _note(name, result)
                return result
            finally:
                self.stack.pop()
                span[END] = time.perf_counter_ns()
                span[BUSY] = span[END] - span[START]

        return timed

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            inner = fn(*args, **kwargs)
            span[NOTE] = 0
            try:
                while True:
                    self.stack.append(index)
                    began = time.perf_counter_ns()
                    try:
                        size, layer = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += time.perf_counter_ns() - began
                        self.stack.pop()
                    if size:
                        span[NOTE] += len(layer)
                    yield size, layer
            finally:
                inner.close()
                span[END] = time.perf_counter_ns()

        return timed

    def install(self) -> None:
        modules = [importlib.import_module("tnnlu")]
        modules += [importlib.import_module(f"tnnlu.{layer}") for layer in TRACED]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"tnnlu.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrap = self._wrap_generator if fname == "iter_minor_layers" else self._wrap
                timed = wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, timed)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def summary(spans: list[list]) -> dict:
    """Reduce spans to per-function calls, busy and self time (ns), the
    exceptions that left each layer by type, and the result counts."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    raised: Counter = Counter()
    counts: Counter = Counter()
    for span in spans:
        name = span[NAME]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        calls[name] += 1
        busy[name] += span[BUSY]
        own[name] += span[BUSY]
        if parent is not None:
            own[parent[NAME]] -= span[BUSY]
        layer = name.split(".")[0]
        if span[RAISED] and (parent is None or parent[NAME].split(".")[0] != layer):
            raised[f"{layer}.{span[RAISED]}"] += 1
        note = span[NOTE]
        if name == "core.iter_minor_layers":
            counts["minors"] += note
            if parent is not None and parent[NAME] == "tnn.is_tnn" and parent[NOTE] is not None:
                counts["tnn_minors_accept" if parent[NOTE] else "tnn_minors_reject"] += note
        elif name == "tnn.is_tnn" and note is not None:
            counts["tnn_accepts" if note else "tnn_rejects"] += 1
        elif name == "mclass.in_class_M" and note is False:
            counts["class_rejects"] += 1
        elif name == "neville.neville_decompose" and note is not None:
            counts["eliminate"] += note[0]
            counts["delete"] += note[1]
    return {"calls": calls, "busy": busy, "self": own, "raised": raised, "counts": counts}
