"""Per-layer spans and counts for the traced run, taken from outside the package.

``Tracer.install`` replaces each layer's public function with a wrapper at the
module that calls it.  The package imports functions by name (``verify`` calls
its own ``build_chain`` and ``contour_integral``, ``homotopy`` its own
``sup_distance`` and ``polygonal_approximation``), so the wrapper must sit where
the name is looked up.  ``uninstall`` restores the originals.

A span is (name, start, end, parent, operation); spans stay in memory and are
written once at the end.  A layer's self time is the span's duration minus the
time its child spans cover.  The package is single-threaded apart from BLAS,
so nothing waits on another layer and self times are busy times.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from contourchain import cli, expressions, homotopy, integrate, paths, verify

# Per-layer time metrics: span name -> metric name (self seconds per operation).
TIME_METRICS = {
    "cli.spec": "cli.spec_s",
    "homotopy.construct": "homotopy.construct_s",
    "homotopy.build_chain": "homotopy.build_chain_s",
    "homotopy.containment": "homotopy.containment_s",
    "geometry.well_contained": "geometry.well_contained_s",
    "approx.polygonal_approximation": "approx.polygonal_approximation_s",
    "paths.sup_distance": "paths.sup_distance_s",
    "verify.verify": "verify.verify_s",
    "integrate.integral_along_chain": "integrate.integral_along_chain_s",
    "integrate.contour_integral": "integrate.contour_integral_s",
    "paths.eval_with_derivative": "paths.eval_with_derivative_s",
    "expressions.evaluate": "expressions.evaluate_s",
    "paths.carrier_of_path": "paths.carrier_of_path_s",
    "verify.winding_number": "verify.winding_number_s",
}

# Work counted from the wrapped calls' results (totals; reported per operation).
COUNT_METRICS = (
    "homotopy.members", "homotopy.carrier_nets", "homotopy.carrier_points",
    "approx.segments", "paths.sup_distance_calls", "integrate.integrals",
    "integrate.integrand_evals", "expressions.evaluate_calls", "integrate.bisection_rounds",
    "integrate.clearance_nets", "verify.clearance_nets",
)


def _record_chain(tracer, chain):
    tracer.counts["homotopy.members"] += len(chain.members)
    worst = max(e.sampled.lo / e.analytic for e in chain.certificate.entries)
    tracer.chain_ratios.append(worst)


def _record_carrier(tracer, carrier):
    tracer.counts["homotopy.carrier_nets"] += 1
    tracer.counts["homotopy.carrier_points"] += len(carrier)


def _record_integral(tracer, result):
    tracer.counts["integrate.integrals"] += 1
    tracer.counts["integrate.integrand_evals"] += result.evaluations


def _record_segments(tracer, approximation):
    tracer.counts["approx.segments"] += approximation.num_segments


def _counter(name):
    def record(tracer, _result):
        tracer.counts[name] += 1
    return record


# (owner, attribute, span name or None for count-only, result hook or None)
_PATCHES = (
    (cli.SpecDocument, "from_dict", "cli.spec", None),
    (cli, "linear_homotopy", "homotopy.construct", None),
    (cli, "star_null_homotopy", "homotopy.construct", None),
    (homotopy, "build_chain", "homotopy.build_chain", _record_chain),
    (verify, "build_chain", "homotopy.build_chain", _record_chain),
    (homotopy, "_certify_containment", "homotopy.containment", None),
    (homotopy, "homotopy_carrier", None, _record_carrier),
    (homotopy, "well_contained", "geometry.well_contained", None),
    (homotopy, "polygonal_approximation", "approx.polygonal_approximation", _record_segments),
    (homotopy, "sup_distance", "paths.sup_distance", _counter("paths.sup_distance_calls")),
    (verify, "verify_homotopy_invariance", "verify.verify", None),
    (verify, "integral_along_chain", "integrate.integral_along_chain", None),
    (integrate, "contour_integral", "integrate.contour_integral", _record_integral),
    (verify, "contour_integral", "integrate.contour_integral", _record_integral),
    (paths.PiecewisePath, "eval_with_derivative", "paths.eval_with_derivative", None),
    (expressions.AnalyticFunction, "evaluate", "expressions.evaluate",
     _counter("expressions.evaluate_calls")),
    (integrate, "carrier_of_path", "paths.carrier_of_path", _counter("integrate.clearance_nets")),
    (verify, "carrier_of_path", "paths.carrier_of_path", _counter("verify.clearance_nets")),
    (verify, "winding_number", "verify.winding_number", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        self.chain_ratios: list[float] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self):
        for owner, attr, name, hook in _PATCHES:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, hook)))
            else:
                setattr(owner, attr, self._wrap(raw, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer._stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def rounds_per_integral(self) -> list[int]:
        """Calls to eval_with_derivative within each contour_integral: one per bisection round."""
        rounds = {i: 0 for i, span in enumerate(self.spans)
                  if span[0] == "integrate.contour_integral"}
        for name, _, _, parent, _ in self.spans:
            if name == "paths.eval_with_derivative" and parent in rounds:
                rounds[parent] += 1
        return list(rounds.values())

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics over ``ops`` traced operations."""
        selfs = self.self_times()
        out = {metric: (selfs.get(span, 0.0) / ops, "s") for span, metric in TIME_METRICS.items()}
        rounds = self.rounds_per_integral()
        counts = dict(self.counts, **{"integrate.bisection_rounds": sum(rounds)})
        for name in COUNT_METRICS:
            out[name] = (counts.get(name, 0) / ops, "count")
        out["integrate.max_rounds"] = (max(rounds, default=0), "count")
        # The slackest chain: its worst pair uses the smallest share of its bound.
        out["homotopy.cert_worst_ratio"] = (min(self.chain_ratios, default=0.0), "ratio")
        return out

    def write(self, filename: str):
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")

