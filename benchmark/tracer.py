"""Spans around calls into arzno's modules, recorded from outside the package.

Each wrapper replaces a name where its caller looks it up (arzno.controller
imports ``step_plant``, ``solve_kernels``, ... by name, and arzno.cli and
arzno.dataset import ``run_closed_loop`` by name), so patching the defining
module alone would miss the calls.  A span is ``[name, start_ns, end_ns,
parent]``; spans stay in memory and are written out when the run ends.

The program is single threaded, so spans nest strictly and the children of
a span never overlap: a span's self time is its duration minus the sum of
its children's durations, and the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable


class Tracer:
    """Installs named wrappers and records spans while enabled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self.fired: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        count: Callable[[tuple, dict], tuple[str, float]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``span``.

        ``count`` optionally maps the call's arguments to a counter name
        and an amount, added up while tracing is enabled.
        """
        fn = getattr(owner, attr)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.fired[key] = 0
        spans, stack, fired = self.spans, self._stack, self.fired

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            fired[key] += 1
            if count is not None:
                name, amount = count(args, kwargs)
                self.counters[name] = self.counters.get(name, 0.0) + amount
            idx = len(spans)
            spans.append([span, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()

        setattr(owner, attr, traced)

    def unfired(self) -> list[str]:
        return [key for key, n in self.fired.items() if n == 0]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and durations."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0] * len(dur)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[idx]
        out: dict[str, dict] = {}
        for idx, (name, _, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "dur": []})
            row["calls"] += 1
            row["ns"] += dur[idx]
            row["self_ns"] += dur[idx] - child[idx]
            row["dur"].append(dur[idx])
        return out

    def dump(self, path: Path, stamp: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "stamp": stamp,
                    "names": names,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
                },
                separators=(",", ":"),
            )
        )
