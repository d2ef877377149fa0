"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the library: `install` replaces a public
function by a timing wrapper in every loaded `eiscong` module that binds it
(so `full_scan -> scan -> reduction_embeddings -> roots_in_field` is traced
through the callers' own globals), and the benchmark opens spans around the
chains it makes itself.  No library source is edited; `uninstall` restores
every binding.

A span is [name, start, end, parent index, op id, sizes].  A layer's self time
is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrapper(self, fn, name: str, sizes=None):
        """`fn` timed as span `name`; `sizes(args, result)` adds size fields
        to the span after its end time is taken."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if sizes is not None:
                rec[5].update(sizes(args, out))
            return out
        return traced

    def install(self, module, attr: str, name: str, sizes=None) -> None:
        """Wrap `module.attr` wherever a loaded eiscong module binds it."""
        orig = getattr(module, attr)
        traced = self.wrapper(orig, name, sizes)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "eiscong":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for rec, cov in zip(self.spans, covered):
            out[rec[0]] += rec[2] - rec[1] - cov
        return dict(out)

    def named(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


def span(tracer: Tracer | None, name: str):
    """A span on `tracer`, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def span_cost(calls: int = 20000) -> float:
    """Measured cost in seconds that one wrapped call adds to a no-op."""
    def noop():
        return None

    traced = Tracer().wrapper(noop, "calibration")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
