"""Pluggable maintainers and the adaptive line-arrival schedule.

Line triples arrive grouped by vertex; after the expander's own edges are in,
the schedule probes the algorithm's current points and finishes on whichever
side the algorithm has neglected.  The maintainers here are replayed and their
churn measured by the harness's replay loops (:mod:`stablecover.harness_cli`),
which recount every figure rather than read it from the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

# disk_churn is re-exported: callers and the benchmark's spans find it here.
from ..geometry import Point, UnitDisk, disk_churn  # noqa: F401
from ..static_solver import (
    SolverKind,
    _greedy_masks,
    max_coverage_masks,
    pad_disks,
    solve,
)
from .expander import BipartiteExpander, build_GmL, build_GmR, random_expander
from .lines import (
    PointKey,
    RationalLine,
    RationalPoint,
    SparseLineRep,
    _key,
    _key_of,
    _meets,
    _norm,
    _point_of,
    sparse_line_rep,
)


class ProbeError(Exception):
    """The probed algorithm reported a malformed solution."""


# ---------------------------------------------------------------------------
# Disk-side maintainers over insert/delete point streams.


class ExactMaintainer:
    """Recomputes the canonical optimum from scratch after every event."""

    def __init__(self, m: int, kind: SolverKind = SolverKind.EXACT):
        self.m = m
        self.kind = kind
        self.points: set[Point] = set()
        self.disks = pad_disks(m)

    def apply(self, op: str, p: Point) -> None:
        if op == "insert":
            self.points.add(p)
        else:
            self.points.remove(p)
        self.disks = solve(self.points, self.m, self.kind).disks

    def solution(self) -> list[UnitDisk]:
        return list(self.disks)


class NoOpMaintainer:
    """Never changes its disks; the churn-zero control."""

    def __init__(self, m: int):
        self.disks = pad_disks(m)

    def apply(self, op: str, p: Point) -> None:
        pass

    def solution(self) -> list[UnitDisk]:
        return list(self.disks)


# ---------------------------------------------------------------------------
# Line-side: the full instance bundle and the adaptive schedule.


@dataclass
class LineInstance:
    """Everything needed to stream an expander's lines adaptively.

    The sparse drawing covers the expander plus both one-sided extensions, so
    either branch of the schedule stays inside one verified placement.
    """

    m: int
    expander: BipartiteExpander
    rep: SparseLineRep
    base_triples: list[list[tuple[int, int]]]
    z_triples: dict[str, list[list[tuple[int, int]]]]

    @property
    def r_points(self) -> set[RationalPoint]:
        return {self.rep.positions[v] for v in self.expander.right}

    def side_rep(self, side: str) -> SparseLineRep:
        edges = [e for tri in self.base_triples for e in tri]
        edges += [e for tri in self.z_triples[side] for e in tri]
        return self.rep.restrict(edges)

    def schedule_lines(self, triples: Sequence[list[tuple[int, int]]]) -> list[list[RationalLine]]:
        return [[self.rep.lines[e] for e in tri] for tri in triples]


def build_line_instance(m: int, seed: int) -> LineInstance:
    """Expander on m+m vertices, both extensions, one verified sparse drawing."""
    if m % 3 != 0:
        raise ValueError("m must be divisible by 3")
    expander = random_expander(m, seed)
    ext_l = build_GmL(expander)
    ext_r = build_GmR(expander, z_start=2 * m + m // 3)
    all_edges = sorted(set(map(_norm, expander.edges + ext_l.z_edges + ext_r.z_edges)))
    vertices = sorted({v for e in all_edges for v in e})
    rep = sparse_line_rep(vertices, all_edges)

    incident: dict[int, list[tuple[int, int]]] = {}
    for e in expander.edges:
        u = min(e)  # the L endpoint: L vertices are 0..m-1
        incident.setdefault(u, []).append(_norm(e))
    base_triples = [sorted(incident[v]) for v in sorted(incident)]
    z_triples = {}
    for side, ext in (("L", ext_l), ("R", ext_r)):
        per_z: dict[int, list[tuple[int, int]]] = {}
        for e in ext.z_edges:
            z = max(e)
            per_z.setdefault(z, []).append(_norm(e))
        z_triples[side] = [sorted(per_z[z]) for z in sorted(per_z)]
    return LineInstance(
        m=m,
        expander=expander,
        rep=rep,
        base_triples=base_triples,
        z_triples=z_triples,
    )


def adaptive_line_stream(
    instance: LineInstance,
    probe: Callable[[], Sequence[RationalPoint]],
):
    """Yield line triples; after the base edges, finish on the weaker side.

    The probe runs once, right after the m-th triple, and must return the
    algorithm's current m points.
    """
    for tri in instance.schedule_lines(instance.base_triples):
        yield tri
    pts = list(probe())
    if len(pts) != instance.m:
        raise ProbeError(f"probe returned {len(pts)} points, expected {instance.m}")
    in_r = sum(1 for p in pts if p in instance.r_points)
    side = "L" if 2 * in_r <= instance.m else "R"
    for tri in instance.schedule_lines(instance.z_triples[side]):
        yield tri


# ---------------------------------------------------------------------------
# Hitting-set maintainers: choose m points stabbing many lines.


def _candidate_table(lines: Sequence[RationalLine]) -> dict[PointKey, int]:
    """Each candidate's key mapped to the bitmask of the lines through it.

    The meets come first; then each line's own point (on the y-axis, or on
    the x-axis for a vertical line) joins in line order.  An own point that is
    no meet lies on no other line but the line's duplicates, whose bits it
    collects; one that is a meet already holds the line's bit.
    """
    table = _meets(lines)
    for i, ln in enumerate(lines):
        key = _key(0, -ln.c, ln.b) if ln.b != 0 else _key(-ln.c, 0, ln.a)
        table[key] = table.get(key, 0) | (1 << i)
    return table


def hitting_candidates(lines: Sequence[RationalLine]) -> list[RationalPoint]:
    """Pairwise intersections plus one canonical point per line, deduplicated,
    in first-seen order."""
    return [_point_of(key) for key in _candidate_table(lines)]


def _hitting_masks(
    lines: Sequence[RationalLine], cands: Sequence[RationalPoint]
) -> list[int]:
    """Bitmask of the lines through each candidate, looked up by its key;
    ``cands`` must come from :func:`hitting_candidates` over ``lines``."""
    table = _candidate_table(lines)
    return [table[_key_of(p)] for p in cands]


def _far_point(index: int, lines: Sequence[RationalLine]) -> RationalPoint:
    x = Fraction(-(10**6) - index)
    y = Fraction(10**9 + index)
    while any(ln.contains((x, y)) for ln in lines):
        y += 1
    return (x, y)


def solve_hitting(
    lines: Sequence[RationalLine], m: int, kind: SolverKind = SolverKind.EXACT
) -> tuple[int, list[RationalPoint]]:
    """Most lines stabbed by m points under the given oracle.

    The exact oracle returns the optimum with the canonical candidate choice;
    the greedy one takes the best marginal gain, lowest candidate on ties.
    """
    if not lines:
        return 0, [_far_point(i, lines) for i in range(m)]
    cands = hitting_candidates(lines)
    masks = _hitting_masks(lines, cands)
    if kind is SolverKind.EXACT:
        value, idxs = max_coverage_masks(masks, m)
    else:
        value, idxs = _greedy_masks(masks, m)
    pts = [cands[i] for i in idxs]
    pts += [_far_point(i, lines) for i in range(m - len(pts))]
    return value, pts


class ExactHittingMaintainer:
    """m points stabbing the most arrived lines, re-solved exactly per triple."""

    def __init__(self, m: int):
        self.m = m
        self.lines: list[RationalLine] = []
        self.points: list[RationalPoint] = [_far_point(i, []) for i in range(m)]

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        self.lines.extend(triple)
        _, self.points = solve_hitting(self.lines, self.m)

    def solution(self) -> list[RationalPoint]:
        return list(self.points)


class GreedyHittingMaintainer(ExactHittingMaintainer):
    """The greedy oracle's m points in place of the exact optimum."""

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        self.lines.extend(triple)
        _, self.points = solve_hitting(self.lines, self.m, SolverKind.GREEDY)


@dataclass
class NoSasCheck:
    """Outcome of the instance-level stability/ratio probe.

    A single run can only witness, never prove, the impossibility bound: when
    an algorithm kept ratio above ``1 - eps_star`` throughout, its maximum
    churn is reported against ``alpha*m/60`` for inspection.
    """

    maintained_ratio: bool
    max_churn: int
    churn_threshold: float


def no_sas_check(
    rows: Sequence[str], eps_star: float, alpha: float, m: int
) -> NoSasCheck:
    """Judge report rows (``t,op,alg_value,opt_value,ratio,churn,branch``, as
    the harness's replay loops return them)."""
    figures = [(int(r[2]), int(r[3]), int(r[5])) for r in (row.split(",") for row in rows)]
    ok = all(alg > (1.0 - eps_star) * opt for alg, opt, _ in figures if opt)
    return NoSasCheck(
        maintained_ratio=ok,
        max_churn=max((churn for _, _, churn in figures), default=0),
        churn_threshold=alpha * m / 60.0,
    )
