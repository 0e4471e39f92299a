"""Per-layer spans recorded from outside the program.

The program binds most names with ``from ... import``, so a function is
reachable through several module attributes. :func:`installed` replaces every
attribute of every loaded ``stablecover`` module that *is* a traced function
with a wrapper that records a span, and restores each one on exit. Calls that
the harness makes for its own re-solve and recount get an extra enclosing span
(``harness_cli.resolve``/``harness_cli.recount``) at that import site only.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from stablecover.sas_engine import Branch

# Span record fields, kept as lists so recording stays cheap.
NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, run id, info."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = ""

    def call(self, name, fn, args, kwargs, note=None):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.run_id, None]
        self.spans.append(record)
        self.stack.append(index)
        record[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record[END] = perf_counter()
            record[INFO] = {"error": type(exc).__name__}
            raise
        finally:
            self.stack.pop()
        record[END] = perf_counter()
        if note is not None:
            record[INFO] = note(args, result)
        return result

    def write(self, path: Path) -> None:
        """One JSON array per line after a header naming the fields; the
        span's id is its line number after the header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "run", "info"]) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def _branch(args, report):
    return {"branch": report.branch.value}


def _count(args, cands):
    return {"candidates": len(cands)}


def _distinct(args, masks):
    return {"masks": len(masks), "distinct": len(set(masks))}


def _incidence(args, masks):
    lines, cands = args[0], args[1]
    return {"tests": len(lines) * len(cands)}


# (home module, attribute, span name, note on the result)
FUNCTIONS = (
    ("stablecover.harness_cli", "run", "harness_cli.run", None),
    ("stablecover.sas_engine", "update", "sas_engine.update", _branch),
    ("stablecover.sas_engine", "find_valid_swap", "sas_engine.find_valid_swap", None),
    ("stablecover.sas_engine", "apply_swap", "sas_engine.apply_swap", None),
    ("stablecover.static_solver", "solve", "static_solver.solve", None),
    ("stablecover.static_solver", "candidate_disks", "static_solver.candidate_disks", _count),
    ("stablecover.static_solver", "coverage_masks", "static_solver.coverage_masks", _distinct),
    ("stablecover.static_solver", "max_coverage_masks", "static_solver.max_coverage_masks", None),
    ("stablecover.geometry", "assign_points", "geometry.assign_points", None),
    ("stablecover.geometry", "select_grid", "geometry.select_grid", None),
    ("stablecover.geometry", "coverage_value", "geometry.coverage_value", None),
    ("stablecover.adversary.streams", "disk_churn", "adversary.streams.disk_churn", None),
    ("stablecover.adversary.streams", "solve_hitting", "adversary.streams.solve_hitting", None),
    ("stablecover.adversary.streams", "hitting_candidates",
     "adversary.streams.hitting_candidates", None),
    ("stablecover.adversary.streams", "_hitting_masks",
     "adversary.streams.hitting_masks", _incidence),
    ("stablecover.adversary.lines", "evaluate_hitting", "adversary.lines.evaluate_hitting", None),
    ("stablecover.adversary.lines", "sparse_line_rep", "adversary.lines.sparse_line_rep", None),
    ("stablecover.adversary.expander", "random_expander",
     "adversary.expander.random_expander", None),
)

# (home module, class, method, span name)
METHODS = (
    ("stablecover.adversary.streams", "ExactMaintainer", "apply",
     "adversary.streams.ExactMaintainer.apply"),
    ("stablecover.adversary.streams", "GreedyHittingMaintainer", "apply_triple",
     "adversary.streams.GreedyHittingMaintainer.apply_triple"),
)

# Import sites whose calls are the harness's own checks, not engine work.
SITE_SPANS = {
    ("stablecover.harness_cli", "solve"): "harness_cli.resolve",
    ("stablecover.harness_cli", "solve_hitting"): "harness_cli.resolve",
    ("stablecover.harness_cli", "coverage_value"): "harness_cli.recount",
    ("stablecover.harness_cli", "evaluate_hitting"): "harness_cli.recount",
    ("stablecover.harness_cli", "disk_churn"): "harness_cli.recount",
}


def _wrap(tracer: Tracer, name: str, fn, note=None):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)

    traced.__wrapped__ = fn
    return traced


def _program_modules() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "stablecover" or key.startswith("stablecover."))
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every import site of the traced functions; returns what to restore."""
    modules = _program_modules()
    by_name = {mod.__name__: mod for mod in modules}
    restore: list[tuple[object, str, object]] = []
    for home, attr, span, note in FUNCTIONS:
        original = getattr(by_name[home], attr)
        wrapper = _wrap(tracer, span, original, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is not original:
                    continue
                site = SITE_SPANS.get((mod.__name__, key))
                restore.append((mod, key, value))
                setattr(mod, key, _wrap(tracer, site, wrapper) if site else wrapper)
    for home, cls_name, method, span in METHODS:
        cls = getattr(by_name[home], cls_name)
        original = cls.__dict__[method]
        restore.append((cls, method, original))
        setattr(cls, method, _wrap(tracer, span, original))
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)


@contextmanager
def installed(tracer: Tracer):
    restore = install(tracer)
    try:
        yield restore
    finally:
        uninstall(restore)


def program_bindings() -> dict[tuple[str, str], object]:
    """Every function and class attribute of the loaded program modules."""
    out: dict[tuple[str, str], object] = {}
    for mod in _program_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(f"{mod.__name__}.{key}", attr)] = member
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], events: int, streams: int) -> dict[str, float]:
    """Per-layer figures per replayed event; set-up spans per generated stream."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    info_sum: dict[str, float] = defaultdict(float)
    branches: dict[str, int] = defaultdict(int)
    budget_errors = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "static_solver.solve":
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            name += ".harness" if parent == "harness_cli.resolve" else ".engine"
        calls[name] += 1
        total[name] += s[END] - s[START]
        selft[name] += own[i]
        info = s[INFO] or {}
        for key, value in info.items():
            if key == "branch":
                branches[value] += 1
            elif key == "error":
                # The error passes through every enclosing span; count it once.
                budget_errors += (
                    name == "static_solver.max_coverage_masks"
                    and value == "SolverBudgetError"
                )
            else:
                info_sum[f"{name}:{key}"] += value

    ev = max(events, 1)
    per_stream = max(streams, 1)
    steps = calls["sas_engine.update"]
    out = {
        "harness_cli.run.self_s": selft["harness_cli.run"] / ev,
        "harness_cli.resolve.calls": calls["harness_cli.resolve"] / ev,
        "harness_cli.resolve.s": total["harness_cli.resolve"] / ev,
        "harness_cli.recount.s": total["harness_cli.recount"] / ev,
        "sas_engine.update.calls": steps / ev,
        "sas_engine.update.self_s": selft["sas_engine.update"] / ev,
        "sas_engine.find_valid_swap.calls": calls["sas_engine.find_valid_swap"] / ev,
        "sas_engine.find_valid_swap.s": total["sas_engine.find_valid_swap"] / ev,
        "sas_engine.apply_swap.calls": calls["sas_engine.apply_swap"] / ev,
        "sas_engine.apply_swap.s": total["sas_engine.apply_swap"] / ev,
        "sas_engine.repair_share": (
            (steps - branches[Branch.NO_CHANGE.value]) / steps if steps else 0.0
        ),
    }
    for label in Branch:
        out[f"sas_engine.branch.{label.value}"] = branches[label.value] / ev
    for side in ("engine", "harness"):
        name = f"static_solver.solve.{side}"
        out[f"{name}.calls"] = calls[name] / ev
        out[f"{name}.self_s"] = selft[name] / ev
    cand_calls = calls["static_solver.candidate_disks"]
    masks = info_sum["static_solver.coverage_masks:masks"]
    out.update({
        "static_solver.candidate_disks.s": total["static_solver.candidate_disks"] / ev,
        "static_solver.candidates_per_solve": (
            info_sum["static_solver.candidate_disks:candidates"] / cand_calls
            if cand_calls else 0.0
        ),
        "static_solver.coverage_masks.s": total["static_solver.coverage_masks"] / ev,
        "static_solver.distinct_mask_share": (
            info_sum["static_solver.coverage_masks:distinct"] / masks if masks else 0.0
        ),
        "static_solver.max_coverage_masks.calls": calls["static_solver.max_coverage_masks"] / ev,
        "static_solver.max_coverage_masks.s": total["static_solver.max_coverage_masks"] / ev,
        "static_solver.budget_errors": budget_errors,
        "geometry.assign_points.calls": calls["geometry.assign_points"] / ev,
        "geometry.assign_points.s": total["geometry.assign_points"] / ev,
        "geometry.select_grid.calls": calls["geometry.select_grid"] / ev,
        "geometry.select_grid.s": total["geometry.select_grid"] / ev,
    })
    for name in (
        "adversary.streams.ExactMaintainer.apply",
        "adversary.streams.GreedyHittingMaintainer.apply_triple",
        "adversary.streams.solve_hitting",
        "adversary.streams.hitting_candidates",
        "adversary.streams.hitting_masks",
        "adversary.lines.evaluate_hitting",
    ):
        out[f"{name}.s"] = total[name] / ev
    out["adversary.lines.incidence_tests"] = (
        info_sum["adversary.streams.hitting_masks:tests"] / ev
    )
    for name in ("adversary.expander.random_expander", "adversary.lines.sparse_line_rep"):
        out[f"{name}.s"] = total[name] / per_stream
    return out


def replay_shares(spans: list[list]) -> list[tuple[str, float]]:
    """Self time of each span name as a share of all replay time, largest first."""
    own = self_times(spans)
    replay = sum(s[END] - s[START] for s in spans if s[NAME] == "harness_cli.run")
    inside: set[int] = set()
    by_name: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[NAME] == "harness_cli.run" or (s[PARENT] >= 0 and s[PARENT] in inside):
            inside.add(i)
            by_name[s[NAME]] += own[i]
    return sorted(
        ((name, t / replay) for name, t in by_name.items()),
        key=lambda item: -item[1],
    ) if replay else []
