"""Timing spans around the public functions of each ials module.

The tracer patches names from outside the package and restores them
afterwards, so no file under src/ials changes.  Several functions are
imported by name into other modules (cli imports `train`, solver imports
`solve_spd`, ...), so each wrapper replaces the name where it is looked
up, not only where it is defined.

A span is (name, start, end, parent index).  Spans stay in memory until
the traced run ends.  A span's self time is its duration minus the part
of it that its children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

MODULES = ("cli", "dataset", "linalg", "solver", "metrics", "model")

# (module where the name is looked up, attribute) -> span name
PATCHES = (
    ("ials.cli", "train", "solver.train"),
    ("ials.cli", "save_model", "model.save_model"),
    ("ials.cli", "load_model", "model.load_model"),
    ("ials.dataset", "load_interactions", "dataset.load_interactions"),
    ("ials.dataset", "leave_one_out_split", "dataset.leave_one_out_split"),
    ("ials.dataset", "strong_generalization_split", "dataset.strong_generalization_split"),
    ("ials.dataset", "save_leave_one_out", "dataset.save_leave_one_out"),
    ("ials.dataset", "save_strong_generalization", "dataset.save_strong_generalization"),
    ("ials.dataset", "write_id_maps", "dataset.write_id_maps"),
    ("ials.dataset", "load_leave_one_out", "dataset.load_leave_one_out"),
    ("ials.dataset", "load_strong_generalization", "dataset.load_strong_generalization"),
    ("ials.solver", "init_model", "model.init_model"),
    ("ials.solver", "update_users", "solver.update_users"),
    ("ials.solver", "update_items", "solver.update_items"),
    ("ials.solver", "compute_losses", "solver.compute_losses"),
    ("ials.solver", "solve_entity", "solver.solve_entity"),
    ("ials.solver", "solve_entity_block", "solver.solve_entity_block"),
    ("ials.solver", "gramian", "linalg.gramian"),
    ("ials.solver", "solve_spd", "linalg.solve_spd"),
    ("ials.linalg", "cholesky", "linalg.cholesky"),
    ("ials.metrics", "evaluate_sampled", "metrics.evaluate_sampled"),
    ("ials.metrics", "evaluate_strong_generalization",
     "metrics.evaluate_strong_generalization"),
    ("ials.metrics", "project_user", "solver.project_user"),
    ("ials.metrics", "rank_items", "model.rank_items"),
    ("ials.metrics", "gramian", "linalg.gramian"),
)


class Tracer:
    """Records nested spans while installed; install() and remove() pair up."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, count_result=None):
        """Wrap fn so every call records a span; count_result(result) -> (counter, n)."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count_result is not None:
                counter, n = count_result(result)
                self.counts[counter] += n
            return result
        return wrapper

    def install(self) -> None:
        import importlib

        from ials.dataset import InteractionSet

        def users_of(report):
            return "metrics.eval_users", report.n_users

        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = self.span(span_name, original,
                                users_of if span_name.startswith("metrics.") else None)
            if attr == "train":
                wrapped = self._wrap_observer(wrapped)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

        original = InteractionSet.__dict__["from_pairs"]
        self._saved.append((InteractionSet, "from_pairs", original))
        InteractionSet.from_pairs = classmethod(
            self.span("dataset.from_pairs", original.__func__))

    def _wrap_observer(self, train):
        """The CLI's per-iteration observer writes the JSONL: time it as cli."""
        @functools.wraps(train)
        def wrapper(*args, observer=None, **kwargs):
            if observer is not None:
                observer = self.span("cli.observer", observer)
            return train(*args, observer=observer, **kwargs)
        return wrapper

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def module_self_by_root(spans) -> dict[str, dict[str, float]]:
    """Self time per module under each top-level span (one per CLI command)."""
    own = self_times(spans)
    root = []
    out: dict[str, dict[str, float]] = {}
    for (name, _, _, parent), s in zip(spans, own):
        root.append(name if parent < 0 else root[parent])
        by_module = out.setdefault(root[-1], defaultdict(float))
        by_module[name.split(".", 1)[0]] += s
    return {r: dict(m) for r, m in out.items()}


def layer_metrics(spans, counts, loop_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced loop (see perfbench/README.md)."""
    own = self_times(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        incl[name] += end - start
        calls[name] += 1
        self_by_name[name] += s

    # evaluate_* minus its fold-in and Gramian children: scoring and ranking.
    rank_self = 0.0
    for name, start, end, _ in spans:
        if name.startswith("metrics.evaluate"):
            rank_self += end - start
    for name, start, end, parent in spans:
        if (parent >= 0 and spans[parent][0].startswith("metrics.evaluate")
                and name in ("solver.project_user", "linalg.gramian")):
            rank_self -= end - start

    def total(table, *names):
        return sum(table[n] for n in names)

    solves = calls["linalg.solve_spd"]
    top_level = sum(end - start for _, start, end, parent in spans if parent < 0)
    m = {
        "dataset.load_interactions_s": incl["dataset.load_interactions"],
        "dataset.split_gen_s": total(incl, "dataset.leave_one_out_split",
                                     "dataset.strong_generalization_split"),
        "dataset.save_split_s": total(incl, "dataset.save_leave_one_out",
                                      "dataset.save_strong_generalization",
                                      "dataset.write_id_maps"),
        "dataset.load_split_s": total(incl, "dataset.load_leave_one_out",
                                      "dataset.load_strong_generalization"),
        "dataset.from_pairs_s": incl["dataset.from_pairs"],
        "dataset.from_pairs_calls": calls["dataset.from_pairs"],
        "linalg.gramian_s": incl["linalg.gramian"],
        "linalg.gramian_calls": calls["linalg.gramian"],
        "linalg.solve_spd_s": incl["linalg.solve_spd"],
        "linalg.solve_spd_calls": solves,
        "linalg.cholesky_calls": calls["linalg.cholesky"],
        "linalg.cholesky_per_solve": calls["linalg.cholesky"] / solves if solves else 0.0,
        "solver.update_users_s": incl["solver.update_users"],
        "solver.update_items_s": incl["solver.update_items"],
        "solver.entity_solves": total(calls, "solver.solve_entity",
                                      "solver.solve_entity_block"),
        "solver.assembly_self_s": total(self_by_name, "solver.solve_entity",
                                        "solver.solve_entity_block"),
        "solver.half_step_self_s": total(self_by_name, "solver.update_users",
                                         "solver.update_items"),
        "solver.compute_losses_s": incl["solver.compute_losses"],
        "solver.project_user_s": incl["solver.project_user"],
        "solver.project_user_calls": calls["solver.project_user"],
        "metrics.evaluate_s": total(incl, "metrics.evaluate_sampled",
                                    "metrics.evaluate_strong_generalization"),
        "metrics.eval_users": counts.get("metrics.eval_users", 0),
        "metrics.rank_self_s": rank_self,
        "model.init_model_s": incl["model.init_model"],
        "model.save_model_s": incl["model.save_model"],
        "model.load_model_s": incl["model.load_model"],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(s for n, s in self_by_name.items()
                                    if n.split(".", 1)[0] == module)
    m["trace.uncovered_s"] = loop_s - top_level
    return m
