"""Per-layer counters for the benchmark's traced run.

A :class:`Tracer` replaces a function at the name its caller looks it up by
(a module global or a class attribute) with a wrapper that counts calls and
accumulates self time: the span's duration minus the time of the traced
spans it encloses. Spans are aggregated per layer name as they close rather
than kept one by one, because a sweep round makes millions of kernel calls.
The wrapper's own cost lands in the enclosing span's self time; the traced
run reports the total as ``trace.overhead_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # Time of closed child spans, one slot per open span (root first).
        self._child = [0.0]
        self._saved = []

    def install(self, owner, attr: str, layer: str, count=None):
        """Trace ``owner.attr`` as ``layer`` until :meth:`uninstall`.

        ``count`` maps the call's result to ``(name, amount)`` added to
        :attr:`counts`, for work a layer reports in its result.
        """
        raw = vars(owner)[attr]
        fn = getattr(owner, attr)
        child = self._child
        calls = self.calls
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = child.pop()
                calls[layer] += 1
                self_s[layer] += span - inner
                child[-1] += span
            if count is not None:
                name, amount = count(result)
                counts[name] += amount
            return result

        # A classmethod is looked up already bound; keep it callable the same way.
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        self._saved.append((owner, attr, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
