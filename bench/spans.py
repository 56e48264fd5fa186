"""In-memory spans around the public functions of spinsieve's modules.

The tracer replaces every public function of every ``spinsieve.*`` module at
each module binding that holds it, not only in its defining module: the
package imports by name (``sieve.is_prime_vec``, ``gaussian.is_prime``, ...),
so patching the defining module alone would miss those callers.

A span has a name, a start, an end and a parent (the innermost wrapped
function active when it began).  The first ``SPANS_KEPT`` spans of each
function are kept whole; every span is also aggregated per (function,
parent) into calls, total time, self time and items, which bounds memory
for functions called hundreds of thousands of times.  Self time is a span's
duration minus the time covered by its child spans.  The tracer keeps one
stack, so it assumes the traced code runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SPANS_KEPT = 64

# Work counted per call in addition to the call itself.
ITEMS = {"arith.is_prime_vec": lambda out: int(out.size)}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._kept: dict[str, int] = {}

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, items: int) -> None:
        end = time.perf_counter()
        name, start, covered = self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - covered
        rec[3] += items
        kept = self._kept.get(name, 0)
        if kept < SPANS_KEPT:
            self._kept[name] = kept + 1
            self.spans.append((name, start, end, parent))

    def wrap(self, fn, name: str):
        """A traced stand-in for ``fn``.  Each resumption of a generator is
        one span, and each value it yields counts as one item."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(0)
                        return
                    except BaseException:
                        self._exit(0)
                        raise
                    self._exit(1)
                    yield item

            return traced_gen

        count = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._exit(count(out) if count and out is not None else 0)

        return traced

    def install(self, package: str, methods: tuple[tuple[type, str], ...] = ()) -> None:
        """Wrap the public functions of every loaded module of ``package`` at
        every binding in the package, and the given class methods."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short.startswith("_") or mod.__name__ == package:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for cls, meth in methods:
            short = cls.__module__.rsplit(".", 1)[-1]
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{cls.__name__}.{meth}"))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s and items, summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _), (calls, _total, self_s, items) in self.agg.items():
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "items": 0})
            t["calls"] += calls
            t["self_s"] += self_s
            t["items"] += items
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s, "items": i}
                for (n, p), (c, t, s, i) in sorted(self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
        }
