"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces chosen public functions of ``milnor_mu`` with
timing wrappers, under every module name that binds them (``quotient``
imports ``reduce_mod_z`` by name, ``cli`` imports ``classify_quotient``, and
so on), and puts the originals back on :meth:`Tracer.uninstall`.

Each call becomes a span: layer name, start, end, and the span that caused
it.  Calls and self time (duration minus the time covered by child spans)
are summed online for every call; the spans themselves are kept in memory
up to ``SPAN_CAP`` and written out by :meth:`Tracer.dump`, because a full
sweep makes about thirty spans per row.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

#: Spans kept for :meth:`Tracer.dump`; calls and self time count every call.
SPAN_CAP = 20_000


class Tracer:
    """Per-layer call counts and self time for a fixed list of layers.

    ``layers`` are names like ``"qz.reduce_mod_z"``: a module of the
    ``milnor_mu`` package and a public function in it.
    """

    def __init__(self, layers: list[str]) -> None:
        self.layers = list(layers)
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.observers: dict[str, Callable[[tuple, object], None]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []
        self._ids = itertools.count()
        self._pid = os.getpid()

    def install(self, only: list[str] | None = None) -> None:
        """Wrap each layer in ``only`` (default: all) wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == "milnor_mu" or name.startswith("milnor_mu.")]
        for idx, layer in enumerate(self.layers):
            if only is not None and layer not in only:
                continue
            module, fn_name = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"milnor_mu.{module}"], fn_name)
            wrapper = self._wrap(idx, original, self.observers.get(layer))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, fn: Callable, observe: Callable | None) -> Callable:
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns
        calls, self_ns, pid = self.calls, self.self_ns, self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # forked pool workers inherit the wrappers; only the parent records
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, clock()]  # span id, child ns, start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                calls[idx] += 1
                self_ns[idx] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((idx, frame[2], end, -1 if parent is None else parent[0],
                                  frame[0]))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, layer: str) -> int:
        return self.calls[self.layers.index(layer)]

    def self_us(self, layer: str) -> float:
        """Mean self time per call in microseconds, 0 for an uncalled layer."""
        idx = self.layers.index(layer)
        return self.self_ns[idx] / self.calls[idx] / 1e3 if self.calls[idx] else 0.0

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON: [layer, start_ns, end_ns, parent, id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "layers": self.layers,
            "fields": ["layer", "start_ns", "end_ns", "parent_id", "id"],
            "spans": [[self.layers[i], s, e, p, k] for i, s, e, p, k in self.spans],
            "kept": len(self.spans),
            "recorded": sum(self.calls),
        }
        path.write_text(json.dumps(payload) + "\n")
