"""Spans around calls into cylcoh's layers, recorded from outside.

Tracer.install() replaces each traced function in the module (or class)
where its callers look it up, so the package itself is not edited: K_y
calls scaled_eval through homotopy's globals, glue_primitive calls
A_alpha through cech's, and so on.  Every call then records a span
(name, start, end, parent); spans stay in memory and are written out
once, when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls nest on one thread, so the
children never overlap.
"""

import json
import time

from cylcoh import cech, constants, cover, forms, homotopy, vanishing


def _size(out):
    return int(out.size)


# (span name, [(owner, attribute), ...], output-size counter or None)
SITES = [
    ("homotopy.K_y", [(homotopy, "K_y")], None),
    ("interp.scaled_eval", [(homotopy, "scaled_eval")], _size),
    ("forms.exterior_derivative", [(forms, "exterior_derivative"),
                                   (cech, "exterior_derivative")], None),
    ("cech.descend_xi", [(cech, "descend_xi")], None),
    ("cech.constant_correction", [(cech, "constant_correction")], None),
    ("cech.ascend_x", [(cech, "ascend_x")], None),
    ("cech.solve_coboundary", [(cech, "solve_coboundary")], None),
    ("cover.partition_of_unity", [(cover.GoodCover, "partition_of_unity")], None),
    ("homotopy.A_alpha", [(homotopy, "A_alpha"), (cech, "A_alpha")], None),
    ("homotopy._box_integral", [(homotopy, "_box_integral")], _size),
    ("constants.C_integral", [(constants, "C_integral")], None),
    ("constants._window_mass_field", [(constants, "_window_mass_field")], _size),
    ("constants.cylinder_constant", [(constants, "cylinder_constant")], None),
    ("vanishing.criterion_check", [(vanishing, "criterion_check")], None),
    ("vanishing._powerlaw_conditions", [(vanishing, "_powerlaw_conditions")], None),
    ("vanishing._sampled_conditions", [(vanishing, "_sampled_conditions")], None),
]

# per-layer metrics, in BENCHMARK.json order: (span, metric suffix)
LAYER_METRICS = [
    ("homotopy.K_y", "calls"), ("homotopy.K_y", "self_s"),
    ("interp.scaled_eval", "calls"), ("interp.scaled_eval", "self_s"),
    ("interp.scaled_eval", "points_per_s"),
    ("forms.exterior_derivative", "calls"), ("forms.exterior_derivative", "self_s"),
    ("cech.descend_xi", "self_s"), ("cech.constant_correction", "self_s"),
    ("cech.ascend_x", "self_s"), ("cech.solve_coboundary", "self_s"),
    ("cover.partition_of_unity", "self_s"),
    ("homotopy.A_alpha", "calls"), ("homotopy.A_alpha", "self_s"),
    ("homotopy._box_integral", "calls"), ("homotopy._box_integral", "self_s"),
    ("homotopy._box_integral", "points_per_s"),
    ("constants.C_integral", "calls"), ("constants.C_integral", "self_s"),
    ("constants._window_mass_field", "calls"),
    ("constants._window_mass_field", "self_s"),
    ("constants._window_mass_field", "points_per_s"),
    ("constants.cylinder_constant", "self_s"),
    ("vanishing.criterion_check", "calls"), ("vanishing.criterion_check", "self_s"),
    ("vanishing._powerlaw_conditions", "self_s"),
    ("vanishing._sampled_conditions", "self_s"),
]
UNITS = {"calls": "count", "self_s": "s", "points_per_s": "1/s"}


class Tracer:
    def __init__(self):
        # each span: [name, parent index or -1, start, end, points]
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(out)
            return out

        return traced

    def install(self):
        for name, owners, count in SITES:
            for owner, attr in owners:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def layer_totals(self):
        """{span name: (calls, self seconds, points)} over all spans."""
        totals = {}
        for (name, _, _, _, pts), own in zip(self.spans, self.self_times()):
            calls, secs, points = totals.get(name, (0, 0.0, 0))
            totals[name] = (calls + 1, secs + own, points + pts)
        return totals

    def layer_metrics(self, rounds):
        """The per-layer metrics: calls and self time per round of the
        workload, and values produced per second of self time."""
        totals = self.layer_totals()
        out = {}
        for name, kind in LAYER_METRICS:
            calls, secs, points = totals.get(name, (0, 0.0, 0))
            if kind == "calls":
                value = calls / rounds
            elif kind == "self_s":
                value = secs / rounds
            else:
                value = points / secs if secs > 0 else 0.0
            out[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
        return out

    def dump(self, path):
        own = self.self_times()
        with open(path, "w") as fh:
            for i, ((name, parent, start, end, pts), s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end, "self": s,
                                     "points": pts}) + "\n")
