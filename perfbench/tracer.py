"""Outside-in span tracer for the program's public functions.

The tracer wraps functions from the outside: for each traced function it
replaces every module attribute in the ``buchirl`` package that holds the
original object (the defining module and every module that imported it by
name), so calls between modules are seen too.  Nothing in the program
changes, and ``uninstall`` puts the originals back.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, parent
being the index of the enclosing span or -1.  A span's self time is its
duration minus the durations of its direct children; summed over all spans
that equals the summed duration of the top-level spans, so self times plus
the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

# public functions traced, as "<module>.<function>" under the buchirl package
TRACED = (
    "mdp.load_mdp",
    "mdp.validate",
    "automata.parse_hoa",
    "product.build_product",
    "shaping.augment",
    "shaping.simulate_batch",
    "solvers.solve_optimal",
    "solvers.greedy_policy",
    "solvers.evaluate_policy",
    "oracle.mec_decomposition",
    "oracle.buchi_value",
    "oracle.policy_buchi_probability",
    "graphs.strongly_connected_components",
    "learn.train",
    "verify.verify_instance",
    "verify.threshold_sweep",
    "verify.tail_check",
    "cli.main",
)


def _count_product(counts, p):
    counts["product.states"] += p.n_states
    counts["product.pairs"] += p.n_pairs
    counts["product.branches"] += sum(len(pair.branches) for plist in p.pairs for pair in plist)


def _count_values(counts, v):
    counts["solvers.vi_iterations"] += v.iterations


def _count_mecs(counts, mecs):
    counts["oracle.mecs"] += len(mecs)
    counts["oracle.accepting_mecs"] += sum(1 for ec in mecs if ec.accepting)


def _count_training(counts, res):
    counts["learn.steps"] += sum(sum(row) for row in res.table.visits)
    # in the total view every episode that is not cut earns at least the
    # reward of its diverting step, so a return of 0 means the step cap hit
    counts["learn.zero_return_episodes"] += sum(1 for _, total, _ in res.curve if total == 0.0)


COUNTERS: dict[str, Callable] = {
    "product.build_product": _count_product,
    "solvers.solve_optimal": _count_values,
    "oracle.mec_decomposition": _count_mecs,
    "learn.train": _count_training,
}

COUNT_NAMES = (
    "product.states",
    "product.pairs",
    "product.branches",
    "solvers.vi_iterations",
    "oracle.mecs",
    "oracle.accepting_mecs",
    "learn.steps",
    "learn.zero_return_episodes",
)


PACKAGE = "buchirl"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []  # indices of spans still running
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        open_ = self._open
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, open_[-1] if open_ else -1))
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Self seconds and calls per traced function, the counters, and
        ``covered_s``: the summed duration of the top-level spans."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        out: dict[str, float] = {}
        for qual in TRACED:
            out[f"{qual}.self_s"] = 0.0
            out[f"{qual}.calls"] = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child[i]
            out[f"{name}.calls"] += 1
        for key in COUNT_NAMES:
            out[key] = self.counts.get(key, 0)
        out["covered_s"] = covered
        train_s = sum(end - start for name, start, end, _ in self.spans if name == "learn.train")
        steps = self.counts.get("learn.steps", 0)
        out["learn.ns_per_step"] = 1e9 * train_s / steps if steps else 0.0
        return out
