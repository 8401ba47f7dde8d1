"""Span tracer for the benchmark's traced run.

The package is not edited: the tracer replaces the module-level names each
layer is reached through (``cli.solve_parity``, ``protocol.run_sequence``,
``ensemble.apply_pulse``, ``ensemble.conjugate``, ...) with timing wrappers,
and puts the originals back on exit.  A call made through a name binds it at
call time, so a wrapped name in a module's namespace also catches the calls
that module's own functions make.  Each span records (id, parent, name,
operation, start, end) in memory; calls, busy time and self time are
accumulated as spans close, and self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from spinparity import cli, ensemble, protocol, reference

# The functions the per-layer metrics are reported for, named by the module
# that defines them.  ``spinops.conjugate`` is split by the unitary it is
# given.  The benchmark's own spans, ``bench.op`` (the timed operation) and
# ``bench.gate`` (its check), appear in the trace report only.
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.parse_truth_table",
    "cli.run_experiment",
    "cli.render_report",
    "protocol.solve_parity",
    "protocol.run_sequence",
    "ensemble.run_sequence",
    "ensemble.evolved_purged_state",
    "ensemble.initial_state",
    "ensemble.apply_pulse",
    "ensemble.gradient_filter",
    "ensemble.zero_quantum_filter",
    "ensemble.read_signal",
    "spinops.conjugate.oracle",
    "spinops.conjugate.shift",
    "oracles.phase_oracle",
    "oracles.shift_unitary_direct",
    "reference.brute_parity",
    "reference.reference_report",
    "reference.brute_shifted_signal",
)

_CONJUGATE = object()

# (module, attribute, span name, kind of unitary the call returns).
# ``protocol.run_sequence`` is the sequence run as the solver reaches it;
# ``ensemble.run_sequence`` counts only direct calls, as dense-n10 makes.
BINDINGS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_truth_table", "cli.parse_truth_table", None),
    (cli, "run_experiment", "cli.run_experiment", None),
    (cli, "render_report", "cli.render_report", None),
    (cli, "solve_parity", "protocol.solve_parity", None),
    (protocol, "solve_parity", "protocol.solve_parity", None),
    (protocol, "run_sequence", "protocol.run_sequence", None),
    (ensemble, "run_sequence", "ensemble.run_sequence", None),
    (ensemble, "evolved_purged_state", "ensemble.evolved_purged_state", None),
    (ensemble, "initial_state", "ensemble.initial_state", None),
    (ensemble, "apply_pulse", "ensemble.apply_pulse", None),
    (ensemble, "gradient_filter", "ensemble.gradient_filter", None),
    (ensemble, "zero_quantum_filter", "ensemble.zero_quantum_filter", None),
    (ensemble, "read_signal", "ensemble.read_signal", None),
    (ensemble, "conjugate", _CONJUGATE, None),
    (ensemble, "phase_oracle", "oracles.phase_oracle", "oracle"),
    (ensemble, "shift_unitary_direct", "oracles.shift_unitary_direct", "shift"),
    (cli, "reference_report", "reference.reference_report", None),
    (reference, "brute_parity", "reference.brute_parity", None),
    (reference, "brute_shifted_signal", "reference.brute_shifted_signal", None),
)

# Spans kept for the span file; the aggregates count every span.
MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.op = None
        self._next_id = 0
        self._stack = []  # [span id, time covered by closed children]
        self._made = {}  # unitary kind -> the last one a wrapped constructor built
        self._saved = []

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid, time.perf_counter()

    def _close(self, name, sid, start):
        end = time.perf_counter()
        _, children = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - children
        parent = None
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((sid, parent, name, self.op, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str, op: int):
        """A span of the benchmark's own, around one operation or its check."""
        self.op = op
        sid, start = self._open()
        try:
            yield
        finally:
            self._close(name, sid, start)

    def _conjugate_name(self, u) -> str:
        for kind, made in self._made.items():
            if u is made:
                return f"spinops.conjugate.{kind}"
        return "spinops.conjugate.other"

    def _wrap(self, fn, name, kind):
        def traced(*args, **kwargs):
            sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                label = self._conjugate_name(args[0]) if name is _CONJUGATE else name
                self._close(label, sid, start)
            if kind is not None:
                self._made[kind] = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        try:
            for module, attr, name, kind in BINDINGS:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, kind))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
