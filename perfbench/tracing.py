"""Outside-in spans around flyqsim's module boundaries.

Each span wraps a module attribute as another module looks it up, so the
program under test is not edited: ``cli`` calls ``netlist_mod.parse`` and
``timing_mod.run_shots``, ``timing`` calls its imported ``apply_element_batch``,
``decode`` and ``np.random.default_rng``, and ``gates`` calls
``fock.mode_unitary_batch``.  Spans stay in memory as (name, start, end,
parent) and are written out when the run ends.  Nothing is patched outside
``Tracer.installed()``, so untraced runs measure the program as shipped.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute): the attribute is replaced on that module,
# which is where the calling module looks it up at call time
SPAN_TARGETS = (
    ("cli.run", "flyqsim.cli", "run"),
    ("netlist.parse", "flyqsim.netlist", "parse"),
    ("netlist.expand_composites", "flyqsim.netlist", "expand_composites"),
    ("netlist.serialize", "flyqsim.netlist", "serialize"),
    ("timing.arrival_times", "flyqsim.timing", "arrival_times"),
    ("timing.check_coincidence", "flyqsim.timing", "check_coincidence"),
    ("timing.run_shots", "flyqsim.timing", "run_shots"),
    ("gates.apply_element_batch", "flyqsim.timing", "apply_element_batch"),
    ("fock.mode_unitary_batch", "flyqsim.fock", "mode_unitary_batch"),
    ("dualrail.decode", "flyqsim.timing", "decode"),
    ("budget.analyze", "flyqsim.budget", "analyze"),
)
RNG_SPAN = "timing.rng"
SPAN_NAMES = tuple(name for name, _, _ in SPAN_TARGETS) + (RNG_SPAN,)
OP_SPAN = "operation"


class _Delegate:
    """Stand-in for a module: overrides some attributes, forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans; ``installed()`` patches the span targets while active."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or -1]
        self._stack: list = []
        self.amp_bytes = 0
        self.operations = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def _wrap_batch(self, fn):
        traced = self._wrap("gates.apply_element_batch", fn)

        def counted(batch, *args, **kwargs):
            self.amp_bytes += batch.nbytes
            return traced(batch, *args, **kwargs)

        return counted

    def operation(self, fn):
        """Run one benchmark operation under a root span."""
        self.operations += 1
        return self._wrap(OP_SPAN, fn)()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, module_name, attr in SPAN_TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrapper = (self._wrap_batch(original)
                           if name == "gates.apply_element_batch"
                           else self._wrap(name, original))
                setattr(module, attr, wrapper)
            timing = importlib.import_module("flyqsim.timing")
            saved.append((timing, "np", timing.np))
            random = _Delegate(np.random, default_rng=self._wrap(
                RNG_SPAN, np.random.default_rng))
            timing.np = _Delegate(np, random=random)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, per operation."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES + (OP_SPAN,)}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        ops = max(self.operations, 1)
        return {name: {"calls": calls / ops, "s": s / ops, "self_s": self_s / ops}
                for name, (calls, s, self_s) in totals.items()}

    def write(self, path) -> None:
        """Spans as JSON, gzip-compressed; parent is an index into ``spans``."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = {"names": names, "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[code[n], s, e, p] for n, s, e, p in self.spans]}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle)

