"""Pluggable maintainers and the adaptive line-arrival schedule.

Line triples arrive grouped by vertex; after the expander's own edges are in,
the schedule probes the algorithm's current points and finishes on whichever
side the algorithm has neglected.  The maintainers here are replayed and their
churn measured by the harness's replay loops (:mod:`stablecover.harness_cli`),
which recount every figure rather than read it from the algorithm.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

# disk_churn is re-exported: callers and the benchmark's spans find it here.
from ..geometry import Point, UnitDisk, disk_churn  # noqa: F401
from ..sas_engine import point_event
from ..static_solver import (
    DEFAULT_NODE_BUDGET,
    CandidateIndex,
    SolverKind,
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
    """Recomputes the canonical optimum after every event.

    The candidates come from a :class:`CandidateIndex` kept across events.  An
    event applies fully or not at all, through the SAS engine's
    :func:`~stablecover.sas_engine.point_event`: a malformed one raises
    ``StreamError``, and if the solve raises (say, out of its node budget),
    the point set and the disks stay as they were.
    """

    def __init__(self, m: int, kind: SolverKind = SolverKind.EXACT,
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.m = m
        self.kind = kind
        self.node_budget = node_budget
        self.index = CandidateIndex()
        self.disks = pad_disks(m)

    def apply(self, op: str, p: Point) -> None:
        with point_event(self.index, op, p):
            self.disks = solve(self.index, self.m, self.kind, self.node_budget).disks

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

    def schedule_lines(self, triples: Sequence[list[tuple[int, int]]]) -> list[list[RationalLine]]:
        return [[self.rep.lines[e] for e in tri] for tri in triples]


def build_line_instance(m: int, seed: int) -> LineInstance:
    """Expander on m+m vertices, both extensions, one verified sparse drawing."""
    if m < 6 or m % 3 != 0:
        raise ValueError(f"m must be a multiple of 3 and at least 6, got m={m}")
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


class HittingCandidates(Sequence):
    """The candidate points of one candidate table, in its key order.

    A read-only sequence: an item becomes a rational point only when it is
    read, so a solve that reads its m chosen indices converts at most m keys.
    ``masks`` holds the table's line masks in the same order.
    """

    __slots__ = ("_keys", "masks")

    def __init__(self, table: dict[PointKey, int]):
        self._keys = list(table)
        self.masks = list(table.values())

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_point_of(key) for key in self._keys[i]]
        return _point_of(self._keys[i])

    def __iter__(self):
        return map(_point_of, self._keys)


def hitting_candidates(lines: Sequence[RationalLine]) -> HittingCandidates:
    """Pairwise intersections plus one canonical point per line, deduplicated,
    in first-seen order, read from one candidate table."""
    return HittingCandidates(_candidate_table(lines))


def _hitting_masks(lines: Sequence[RationalLine], cands: HittingCandidates) -> list[int]:
    """Bitmask of the lines through each candidate, read from the table that
    ``cands`` was built from; ``cands`` must come from
    :func:`hitting_candidates` over ``lines``."""
    return cands.masks


def _far_point(index: int, lines: Sequence[RationalLine]) -> RationalPoint:
    x = Fraction(-(10**6) - index)
    y = Fraction(10**9 + index)
    while any(ln.contains((x, y)) for ln in lines):
        y += 1
    return (x, y)


def solve_hitting(
    lines: Sequence[RationalLine], m: int, kind: SolverKind = SolverKind.EXACT
) -> tuple[int, Callable[[], list[RationalPoint]]]:
    """Most lines stabbed by m points under the given oracle, which
    :func:`~stablecover.static_solver.max_coverage_masks` runs: the value now,
    and ``points()`` for the m points.

    One call builds one candidate table and reads the masks from it.  Only
    ``points()`` runs the oracle's ``pick()`` (the exact extraction, under the
    same node budget) and makes rational points for the chosen candidates (at
    most m), padded with far points.
    """
    if not lines:
        return 0, lambda: [_far_point(i, lines) for i in range(m)]
    cands = hitting_candidates(lines)
    value, pick = max_coverage_masks(_hitting_masks(lines, cands), m, kind)

    def points() -> list[RationalPoint]:
        pts = [cands[i] for i in pick()]
        return pts + [_far_point(i, lines) for i in range(m - len(pts))]

    return value, points


class ExactHittingMaintainer:
    """m points stabbing the most arrived lines, re-solved exactly per triple.

    A triple applies fully or not at all: if the solve or the extraction of
    its points raises (say, out of its node budget), the lines and the points
    stay as they were.
    """

    kind = SolverKind.EXACT

    def __init__(self, m: int):
        self.m = m
        self.lines: list[RationalLine] = []
        self.points: list[RationalPoint] = [_far_point(i, []) for i in range(m)]

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        lines = self.lines + list(triple)
        _, points = solve_hitting(lines, self.m, self.kind)
        # points() may raise; the tuple is built before either name is bound.
        self.lines, self.points = lines, points()

    def solution(self) -> list[RationalPoint]:
        return list(self.points)


class GreedyHittingMaintainer(ExactHittingMaintainer):
    """The greedy oracle's m points in place of the exact optimum."""

    kind = SolverKind.GREEDY
    # The inherited body, bound again in this class's own ``__dict__``: the
    # benchmark's step timer and tracer look the method up there.
    apply_triple = ExactHittingMaintainer.apply_triple


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
    keep = 1 - Fraction(str(eps_star))  # the decimal as written, not its binary float
    ok = all(alg * keep.denominator > keep.numerator * opt for alg, opt, _ in figures if opt)
    return NoSasCheck(
        maintained_ratio=ok,
        max_churn=max((churn for _, _, churn in figures), default=0),
        churn_threshold=alpha * m / 60.0,
    )
