"""In-memory spans around calls into the program's modules.

`Tracer.wrap` replaces a function in the namespace its caller reads it
from (for example `oistlab.simulate.next_sample`) with a wrapper that
records one span per call: the layer name, the enclosing span, and the
start and end times. Spans live in flat typed arrays, so a sweep's
several hundred thousand calls cost a few bytes each, and are written
out once at the end. A span's self time is its duration minus the
durations of the spans it encloses.
"""
from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, module, attr: str, layer: str, after=None) -> bool:
        """Trace `module.attr` as `layer`; `after(counters, result)` sees each result.

        Returns False, leaving the module alone, when it has no such attribute.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        layer_id = len(self.layers)
        self.layers.append(layer)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(counters, result)
            return result

        setattr(module, attr, traced)
        return True

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds and self seconds."""
        import numpy as np

        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - children
        k = len(self.layers)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {layer: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(own[i])}
                for i, layer in enumerate(self.layers)}

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, layers=np.array(self.layers), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))
