"""Span tracing of contactmech's public functions, installed from outside.

No source file of the package is edited.  `Tracer.installed()` replaces
each traced function with a wrapper that records a span (layer, start,
end, parent span, command id) and restores the originals on exit.
Modules bind imported names locally (`cli` holds its own
`classify_symmetry`, `analysis` its own `lie_bracket`), so a function is
rebound under every name that refers to it in every contactmech module;
methods are wrapped once, on their class.  Spans stay in memory as
compact arrays; `summary()` derives per-layer calls, busy and self time,
and `save()` writes the spans out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _trajectory_counts(counts: dict, traj, key: str) -> None:
    counts["integrate.steps_accepted"] += traj.accepted
    counts["integrate.steps_rejected"] += traj.rejected
    counts[key] += traj.accepted + traj.rejected


def _sample_counts(counts: dict, reports) -> None:
    for report in reports:
        counts["analysis.samples_attempted"] += report.samples + report.failed_samples
        counts["analysis.samples_failed"] += report.failed_samples


# (module, attribute, layer name, hook on the result that updates counts)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("specdoc", "load_document", "specdoc.load_document", None),
    ("expr", "parse", "expr.parse", None),
    ("expr", "Expression._run", "expr.eval", None),
    ("contact_core", "ContactSystem.flow", "contact_core.flow", None),
    (
        "contact_core",
        "ContactSystem.hamiltonian_value",
        "contact_core.hamiltonian_value",
        None,
    ),
    ("contact_core", "ContactSystem.d_hamiltonian", "contact_core.d_hamiltonian", None),
    (
        "integrate",
        "integrate_fixed",
        "integrate.integrate_fixed",
        lambda c, traj: _trajectory_counts(c, traj, "integrate.integrate_fixed.steps"),
    ),
    (
        "integrate",
        "integrate_adaptive",
        "integrate.integrate_adaptive",
        lambda c, traj: _trajectory_counts(
            c, traj, "integrate.integrate_adaptive.attempts"
        ),
    ),
    ("integrate", "write_trajectory_csv", "integrate.write_trajectory_csv", None),
    ("integrate", "read_trajectory_csv", "integrate.read_trajectory_csv", None),
    ("calculus", "lie_bracket", "calculus.lie_bracket", None),
    ("calculus", "vf_jacobian", "calculus.vf_jacobian", None),
    (
        "calculus",
        "lie_derivative_contact_form",
        "calculus.lie_derivative_contact_form",
        None,
    ),
    ("calculus", "lie_derivative_scalar", "calculus.lie_derivative_scalar", None),
    ("calculus", "hamiltonian_field", "calculus.hamiltonian_field", None),
    (
        "analysis",
        "classify_symmetry",
        "analysis.classify_symmetry",
        _sample_counts,
    ),
    (
        "analysis",
        "check_quantity",
        "analysis.check_quantity",
        lambda c, report: _sample_counts(c, (report.conserved, report.dissipated)),
    ),
    (
        "analysis",
        "check_contact_symmetry_map",
        "analysis.check_contact_symmetry_map",
        lambda c, report: _sample_counts(c, (report,)),
    ),
    ("analysis", "sample_states", "analysis.sample_states", None),
)

LAYERS = tuple(layer for _, _, layer, _ in TRACED)

COUNTERS = (
    "integrate.steps_accepted",
    "integrate.steps_rejected",
    "integrate.integrate_fixed.steps",
    "integrate.integrate_adaptive.attempts",
    "analysis.samples_attempted",
    "analysis.samples_failed",
)


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._commands = 0

    def _wrap(self, fn, layer_id: int, hook):
        start, end, layer, parent, command = (
            self.start, self.end, self.layer, self.parent, self.command
        )
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            if stack:
                parent.append(stack[-1])
            else:
                parent.append(-1)
                self._commands += 1
            command.append(self._commands)
            layer.append(layer_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function to its wrapper; restore on exit."""
        restore = []
        try:
            for layer_id, (module_name, attr, _, hook) in enumerate(TRACED):
                module = importlib.import_module(f"contactmech.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(original, layer_id, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, layer_id, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "contactmech" and not mod_name.startswith(
                        "contactmech."
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """{layer: (calls, busy_s, self_s)}; self is busy minus child spans."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer = np.frombuffer(self.layer, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        own = dur - covered
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=dur, minlength=len(LAYERS))
        self_time = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {
            name: (int(calls[i]), float(busy[i]), float(self_time[i]))
            for i, name in enumerate(LAYERS)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
