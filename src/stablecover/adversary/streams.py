"""Adaptive arrival schedules and churn measurement for pluggable maintainers.

Line triples arrive grouped by vertex; after the expander's own edges are in,
the schedule probes the algorithm's current points and finishes on whichever
side the algorithm has neglected.  Churn is always recomputed here as a
symmetric difference of consecutive solutions, never read from the algorithm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ..geometry import Point, UnitDisk, coverage_value
from ..static_solver import SolverKind, max_coverage_masks, solve
from .expander import BipartiteExpander, build_GmL, build_GmR, random_expander
from .lines import (
    RationalLine,
    RationalPoint,
    SparseLineRep,
    evaluate_hitting,
    line_intersection,
    sparse_line_rep,
)


@dataclass
class ChurnRecord:
    t: int
    op: str
    alg_value: int
    opt_value: int
    churn: int


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
        self.disks: list[UnitDisk] = [
            UnitDisk(Point(0.0, -1000.0 - 3.0 * i)) for i in range(m)
        ]

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
        self.m = m
        self.points: set[Point] = set()
        self.disks = [UnitDisk(Point(0.0, -1000.0 - 3.0 * i)) for i in range(m)]

    def apply(self, op: str, p: Point) -> None:
        if op == "insert":
            self.points.add(p)
        else:
            self.points.remove(p)

    def solution(self) -> list[UnitDisk]:
        return list(self.disks)


def disk_churn(before: list[UnitDisk], after: list[UnitDisk]) -> int:
    a, b = Counter(before), Counter(after)
    return sum((a - b).values()) + sum((b - a).values())


def measure_churn(
    maintainer,
    events: Iterable[tuple[str, Point]],
    opt_kind: SolverKind = SolverKind.EXACT,
) -> list[ChurnRecord]:
    """Drive a disk maintainer through a point stream, recounting every step."""
    records = []
    points: set[Point] = set()
    for t, (op, p) in enumerate(events, start=1):
        before = maintainer.solution()
        maintainer.apply(op, p)
        after = maintainer.solution()
        if op == "insert":
            points.add(p)
        else:
            points.remove(p)
        alg = coverage_value(points, after)
        opt = solve(points, len(after), opt_kind).value
        records.append(
            ChurnRecord(
                t=t,
                op=op,
                alg_value=alg,
                opt_value=opt,
                churn=disk_churn(before, after),
            )
        )
    return records


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

    @property
    def l_points(self) -> set[RationalPoint]:
        return {self.rep.positions[v] for v in self.expander.left}

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
    all_edges = sorted(
        {tuple(sorted(e)) for e in expander.edges}
        | {tuple(sorted(e)) for e in ext_l.z_edges}
        | {tuple(sorted(e)) for e in ext_r.z_edges}
    )
    vertices = sorted({v for e in all_edges for v in e})
    rep = sparse_line_rep(vertices, all_edges)

    def norm(e):
        return tuple(sorted(e))

    incident: dict[int, list[tuple[int, int]]] = {}
    for e in expander.edges:
        u = min(e)  # the L endpoint: L vertices are 0..m-1
        incident.setdefault(u, []).append(norm(e))
    base_triples = [sorted(incident[v]) for v in sorted(incident)]
    z_triples = {}
    for side, ext in (("L", ext_l), ("R", ext_r)):
        per_z: dict[int, list[tuple[int, int]]] = {}
        for e in ext.z_edges:
            z = max(e)
            per_z.setdefault(z, []).append(norm(e))
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


def hitting_candidates(lines: Sequence[RationalLine]) -> list[RationalPoint]:
    """Pairwise intersections plus one canonical point per line."""
    cands: list[RationalPoint] = []
    seen: set[RationalPoint] = set()

    def emit(p: RationalPoint) -> None:
        if p not in seen:
            seen.add(p)
            cands.append(p)

    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = line_intersection(lines[i], lines[j])
            if pt is not None:
                emit(pt)
    for ln in lines:
        if ln.b != 0:
            emit((Fraction(0), Fraction(-ln.c, ln.b)))
        else:
            emit((Fraction(-ln.c, ln.a), Fraction(0)))
    return cands


def _hitting_masks(
    lines: Sequence[RationalLine], cands: Sequence[RationalPoint]
) -> list[int]:
    masks = []
    for p in cands:
        mask = 0
        for i, ln in enumerate(lines):
            if ln.contains(p):
                mask |= 1 << i
        masks.append(mask)
    return masks


def _far_point(index: int, lines: Sequence[RationalLine]) -> RationalPoint:
    x = Fraction(-(10**6) - index)
    y = Fraction(10**9 + index)
    while any(ln.contains((x, y)) for ln in lines):
        y += 1
    return (x, y)


def solve_hitting(lines: Sequence[RationalLine], m: int) -> tuple[int, list[RationalPoint]]:
    """Exact max lines stabbed by m points; canonical candidate choice."""
    if not lines:
        return 0, [_far_point(i, lines) for i in range(m)]
    cands = hitting_candidates(lines)
    masks = _hitting_masks(lines, cands)
    value, idxs = max_coverage_masks(masks, m)
    pts = [cands[i] for i in idxs]
    pts += [_far_point(i, lines) for i in range(m - len(pts))]
    return value, pts


class ExactHittingMaintainer:
    def __init__(self, m: int):
        self.m = m
        self.lines: list[RationalLine] = []
        self.points: list[RationalPoint] = [_far_point(i, []) for i in range(m)]

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        self.lines.extend(triple)
        _, self.points = solve_hitting(self.lines, self.m)

    def solution(self) -> list[RationalPoint]:
        return list(self.points)


class GreedyHittingMaintainer:
    def __init__(self, m: int):
        self.m = m
        self.lines: list[RationalLine] = []
        self.points: list[RationalPoint] = [_far_point(i, []) for i in range(m)]

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        self.lines.extend(triple)
        cands = hitting_candidates(self.lines)
        masks = _hitting_masks(self.lines, cands)
        chosen: list[int] = []
        covered = 0
        for _ in range(min(self.m, len(cands))):
            best_i, best_gain = -1, -1
            for i, mk in enumerate(masks):
                if i in chosen:
                    continue
                gain = (mk & ~covered).bit_count()
                if gain > best_gain:
                    best_i, best_gain = i, gain
            chosen.append(best_i)
            covered |= masks[best_i]
        pts = [cands[i] for i in chosen]
        pts += [_far_point(i, self.lines) for i in range(self.m - len(pts))]
        self.points = pts

    def solution(self) -> list[RationalPoint]:
        return list(self.points)


def run_line_stream(maintainer, instance: LineInstance) -> list[ChurnRecord]:
    """Drive a hitting maintainer through the adaptive schedule."""
    records = []
    arrived: list[RationalLine] = []
    stream = adaptive_line_stream(instance, maintainer.solution)
    for t, triple in enumerate(stream, start=1):
        before = set(maintainer.solution())
        maintainer.apply_triple(triple)
        after = set(maintainer.solution())
        arrived.extend(triple)
        alg = evaluate_hitting(after, arrived)
        opt, _ = solve_hitting(arrived, instance.m)
        records.append(
            ChurnRecord(
                t=t,
                op="lines",
                alg_value=alg,
                opt_value=opt,
                churn=len(before ^ after),
            )
        )
    return records


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
    records: Sequence[ChurnRecord], eps_star: float, alpha: float, m: int
) -> NoSasCheck:
    ok = all(
        r.alg_value > (1.0 - eps_star) * r.opt_value for r in records if r.opt_value
    )
    return NoSasCheck(
        maintained_ratio=ok,
        max_churn=max((r.churn for r in records), default=0),
        churn_threshold=alpha * m / 60.0,
    )
