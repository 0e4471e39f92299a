"""Pluggable maintainers and the adaptive line-arrival schedule.

Line triples arrive grouped by vertex; after the expander's own edges are in,
the schedule probes the algorithm's current points and finishes on whichever
side the algorithm has neglected.  The maintainers here are replayed and their
churn measured by the harness's replay loops (:mod:`stablecover.harness_cli`),
which recount every figure rather than read it from the algorithm.

The hitting maintainers keep an append-only :class:`HittingTable` of candidate
points and line masks across triples, as the point maintainers keep a
:class:`~stablecover.static_solver.CandidateIndex`; :func:`solve_hitting`
takes either the table or a line list, whose table it builds from scratch.
The harness re-solves from the arrived lines, so its table checks the kept one.
A failed triple is rolled back by rebuilding the table from the lines before
it.  Every maintainer here holds plain data, so ``copy.deepcopy`` forks one
mid-stream.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

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
    collects; one that is a meet already holds the line's bit.  A
    :class:`HittingTable` keeps the same table as lines arrive.
    """
    table = _meets(lines)
    for i, ln in enumerate(lines):
        key = _own_key(ln)
        table[key] = table.get(key, 0) | (1 << i)
    return table


def _own_key(ln: RationalLine) -> PointKey:
    """The key of a line's own point: on the y-axis, or on the x-axis for a
    vertical line."""
    return _key(0, -ln.c, ln.b) if ln.b != 0 else _key(-ln.c, 0, ln.a)


class HittingCandidates(Sequence):
    """The candidate points of one candidate table, in its key order.

    A read-only sequence: an item becomes a rational point only when it is
    read, so a solve that reads its m chosen indices converts at most m keys.
    ``masks`` holds the table's line masks in the same order.
    """

    __slots__ = ("_keys", "masks")

    def __init__(self, keys: list[PointKey], masks: list[int]):
        self._keys = keys
        self.masks = masks

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> RationalPoint:
        return _point_of(self._keys[i])

    def __iter__(self):
        return map(_point_of, self._keys)


def hitting_candidates(lines: Sequence[RationalLine]) -> HittingCandidates:
    """Pairwise intersections plus one canonical point per line, deduplicated,
    in first-seen order, read from one candidate table."""
    table = _candidate_table(lines)
    return HittingCandidates(list(table), list(table.values()))


def _hitting_masks(lines: Sequence[RationalLine], cands: HittingCandidates) -> list[int]:
    """Bitmask of the lines through each candidate, read from the table that
    ``cands`` was built from; ``cands`` must come from
    :func:`hitting_candidates` over ``lines``."""
    return cands.masks


class HittingTable:
    """The candidate table of a growing line list, kept across triples.

    :meth:`candidates` reads the keys, order and masks of
    ``_candidate_table(lines)``.  That order is first-seen ``(i, j)`` pair
    order, then the own points that are no meet, so the meets sit in one
    block per line: line ``i``'s block holds the meets first seen at a pair
    ``(i, j)``, by ``j``.  A meet's first pair never changes once it is a
    meet, so a new line ``n`` only appends: its meet with line ``i`` goes at
    the end of line ``i``'s block when no earlier pair gave that point, and an
    own point the meet falls on leaves the own-point tail for that block.
    Nothing is ever taken out; to drop lines, build a new table.
    """

    def __init__(self, lines: Sequence[RationalLine] = ()):
        self.lines: list[RationalLine] = []
        self._coeffs: list[tuple[int, int, int]] = []
        self._blocks: list[list[PointKey]] = []
        self._own: dict[PointKey, None] = {}  # own points that are no meet, in order
        self._mask: dict[PointKey, int] = {}
        self.extend(lines)

    def candidates(self) -> HittingCandidates:
        keys = [*chain.from_iterable(self._blocks), *self._own]
        return HittingCandidates(keys, list(map(self._mask.__getitem__, keys)))

    def extend(self, triple: Sequence[RationalLine]) -> None:
        """Append the lines (a triple, or any number).

        Each new line's meets with every earlier line are keyed as ``_meets``
        keys them, then its own point joins.
        """
        mask_of, own, blocks = self._mask, self._own, self._blocks
        for ln in triple:
            n = len(self.lines)
            a2, b2, c2 = ln.a, ln.b, ln.c
            bit_n = 1 << n
            for i, (a1, b1, c1) in enumerate(self._coeffs):
                w = a1 * b2 - a2 * b1
                if w == 0:
                    continue
                x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
                g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
                key = (x // g, y // g, w // g)
                old = mask_of.get(key)
                mask_of[key] = (old or 0) | (1 << i) | bit_n
                if old is None or key in own:
                    # First seen at (i, n): every earlier line through the
                    # point is a copy of line i, the lowest of them.
                    own.pop(key, None)
                    blocks[i].append(key)
            self.lines.append(ln)
            self._coeffs.append((a2, b2, c2))
            blocks.append([])
            key = _own_key(ln)
            if key not in mask_of:
                own[key] = None
            mask_of[key] = mask_of.get(key, 0) | bit_n


def _far_point(index: int, lines: Sequence[RationalLine]) -> RationalPoint:
    x = Fraction(-(10**6) - index)
    y = Fraction(10**9 + index)
    while any(ln.contains((x, y)) for ln in lines):
        y += 1
    return (x, y)


def solve_hitting(
    lines_or_table: Sequence[RationalLine] | HittingTable,
    m: int,
    kind: SolverKind = SolverKind.EXACT,
) -> tuple[int, Callable[[], list[RationalPoint]]]:
    """Most lines stabbed by m points under the given oracle, which
    :func:`~stablecover.static_solver.max_coverage_masks` runs: the value now,
    and ``points()`` for the m points.

    Given a :class:`HittingTable`, the solve reads its lines, candidates and
    masks from it; given lines, it builds one candidate table from scratch
    and reads the masks from it.  Only ``points()`` runs the oracle's
    ``pick()`` (the exact extraction, under the same node budget) and makes
    rational points for the chosen candidates (at most m), padded with far
    points.
    """
    if isinstance(lines_or_table, HittingTable):
        # A copy of the table's lines: points() pads against the lines solved.
        lines = list(lines_or_table.lines)
        cands = lines_or_table.candidates()
        masks = cands.masks
    else:
        lines = lines_or_table
        cands = hitting_candidates(lines)
        masks = _hitting_masks(lines, cands)
    value, pick = max_coverage_masks(masks, m, kind)

    def points() -> list[RationalPoint]:
        pts = [cands[i] for i in pick()]
        return pts + [_far_point(i, lines) for i in range(m - len(pts))]

    return value, points


class ExactHittingMaintainer:
    """m points stabbing the most arrived lines, re-solved exactly per triple.

    The candidates come from a :class:`HittingTable` kept across triples.  A
    triple applies fully or not at all: if extending the table, the solve or
    the extraction of its points raises (say, out of its node budget), the
    table is rebuilt from the lines that had arrived before it, and the lines
    and the points stay as they were.  The rebuild costs O(n^2) meets in the n lines, on that
    failure path only.
    """

    kind = SolverKind.EXACT

    def __init__(self, m: int):
        self.m = m
        self.table = HittingTable()
        self.points: list[RationalPoint] = [_far_point(i, []) for i in range(m)]

    @property
    def lines(self) -> list[RationalLine]:
        return self.table.lines

    def apply_triple(self, triple: Sequence[RationalLine]) -> None:
        arrived = len(self.table.lines)
        try:
            self.table.extend(triple)
            _, points = solve_hitting(self.table, self.m, self.kind)
            self.points = points()
        except BaseException:
            self.table = HittingTable(self.table.lines[:arrived])
            raise

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
