"""Span tracer that wraps public quditsim functions from outside the package.

Each wrapped function records one span per call: name, start, end, parent
span and the shot it ran in. Spans stay in memory until the run ends; self
time is a span's duration minus the time its direct children cover.

Where a module imports a function by name (``gcamps.robust_svd``,
``gcamps.decompose_unitary``, ``bench.gate_matrix``), the wrapper replaces
the name that module looks up, so each call site is traced where it
happens.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from functools import wraps


def trace_targets():
    """(owner, attribute, span name) for every traced call site."""
    from quditsim import bench, circuits, disentanglers, gcamps, mps, tableau

    Tableau, Mps, State = tableau.Tableau, mps.Mps, gcamps.GcampsState
    return [
        (disentanglers, "generate_catalog", "disentanglers.generate_catalog"),
        (Tableau, "apply_gate", "tableau.apply_gate"),
        (Tableau, "conjugate_inverse", "tableau.conjugate_inverse"),
        (Tableau, "conjugate_forward", "tableau.conjugate_forward"),
        (Tableau, "right_multiply", "tableau.right_multiply"),
        (gcamps, "decompose_unitary", "pauli.decompose_unitary"),
        (Mps, "apply_pauli_sum", "mps.apply_pauli_sum"),
        (Mps, "move_center", "mps.move_center"),
        (gcamps, "robust_svd", "gcamps.robust_svd"),
        (State, "disentangle", "gcamps.disentangle"),
        (State, "apply_non_clifford", "gcamps.apply_non_clifford"),
        (Mps, "apply_unitary", "mps.apply_unitary"),
        (Mps, "apply_two_site", "mps.apply_two_site"),
        (mps, "robust_svd", "mps.robust_svd"),
        (gcamps, "gate_matrix", "circuits.gate_matrix"),
        (bench, "gate_matrix", "circuits.gate_matrix"),
        (circuits, "gate_matrix", "circuits.gate_matrix"),
        (bench, "run_on_backend", "bench.run_on_backend"),
    ]


def span_names():
    """Distinct span names in report order."""
    return list(dict.fromkeys(name for _, _, name in trace_targets()))


class Tracer:
    """Installs wrappers on demand; spans are (name, start, end, parent, shot)."""

    def __init__(self):
        self.spans = []
        self.shot = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the id so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.shot)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in trace_targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self, shots):
        """Per-name (calls, self seconds) over spans whose shot is in `shots`."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, (name, start, end, _, shot) in enumerate(self.spans):
            if shot in shots:
                calls[name] += 1
                self_s[name] += end - start - child[idx]
        return calls, self_s

    def write(self, path):
        """All spans as gzip CSV: id,name,start_s,end_s,parent,shot."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,shot\n")
            for idx, (name, start, end, parent, shot) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent},{shot}\n")
