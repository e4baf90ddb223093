"""Spans around the calls into each planwright layer.

Tracing works from outside the program: ``patched`` swaps module
attributes for timing wrappers and restores them afterwards. A function is
patched in the namespace its caller looks it up in (``extraction`` imports
``refine_term`` by name, so ``extraction.refine_term`` is the one replaced).
Spans stay in memory as (id, parent, run, name, start, end, raised) and are
written out once, after the measurement.
"""

from __future__ import annotations

import contextlib
import time

from planwright import egraph, extraction, kernels, ordering

ROOT_SPAN = "icee_run"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name, fn, args, kwargs, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        state = before(args) if before is not None else None
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end, raised))
        if after is not None:
            after(state, args, result)
        return result

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, raised count.

        Spans are appended when they end, so every child precedes its parent.
        """
        child_time: dict[int, float] = {}
        out: dict[str, dict[str, float]] = {}
        for sid, parent, _, name, start, end, raised in self.spans:
            dur = end - start
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "raised": 0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time.pop(sid, 0.0)
            agg["raised"] += raised
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + dur
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,run,name,start,end,raised\n")
            for sid, parent, run, name, start, end, raised in self.spans:
                fh.write(f"{sid},{parent},{run},{name},{start!r},{end!r},{int(raised)}\n")


def _patch_table(tracer: Tracer):
    """(owner, attribute, span name, before, after) for every traced call."""
    count = tracer.count

    def pruned(_, __, result):
        count("ordering.refine_term.pruned", 0 if result else 1)

    def sized(counter):
        return lambda _, __, result: count(counter, len(result))

    def graph_size(args):
        return len(args[0].nodes)

    def contracted(before, args, _):
        count("egraph.nodes_pre_contract", before)
        count("egraph.nodes_post_contract", len(args[0].nodes))

    return [
        (ordering, "evaluate_plan", "cost.evaluate_plan", None, None),
        (extraction, "refine_term", "ordering.refine_term", None, pruned),
        (ordering, "term_bounds", "ordering.term_bounds", None, None),
        (extraction, "optimize_enode", "ordering.optimize_enode", None, None),
        (ordering, "candidate_orders", "ordering.candidate_orders", None,
         sized("ordering.orders_scored")),
        (kernels, "eval_orders_chop", "kernels.eval_orders_chop", None,
         sized("kernels.eval_orders_chop.orders")),
        (ordering, "stacked_variant", "plans.stacked_variant", None, None),
        (extraction, "generate_arrangements", "packing.generate_arrangements",
         None, sized("packing.arrangements")),
        (egraph.BopEGraph, "add_arrangement", "egraph.add_arrangement", None,
         sized("egraph.nodes_added")),
        (egraph.BopEGraph, "contract", "egraph.contract", graph_size, contracted),
        (extraction, "ga_extract", "extraction.ga_extract", None, None),
        (extraction, "non_dominated_sort", "extraction.non_dominated_sort",
         None, None),
        (extraction, "evaluate_term", "extraction.evaluate_term", None, None),
        (extraction, "_merge_archive", "extraction.merge_archive", None, None),
        (extraction, "sample_design", "designspace.sample_design", None, None),
        (extraction, "hypervolume", "analysis.hypervolume", None, None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in _patch_table(tracer):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
