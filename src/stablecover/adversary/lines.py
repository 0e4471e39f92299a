"""Exact point/line incidence over the rationals.

A graph is drawn with vertices on a cubic curve and edges as infinite lines;
the drawing is verified exactly so that three-or-more-line concurrences occur
only at vertex points and no point lies on five lines.  Floating point is
forbidden in this module: concurrency counts are the whole point.

Incidence is integer arithmetic.  A point is held as the homogeneous
integer triple ``(X, Y, W)`` standing for ``(X/W, Y/W)``; divided by
``gcd(X, Y, W)`` and signed so ``W > 0`` it is the one key of that point.
A line ``(a, b, c)`` contains it when ``a*X + b*Y + c*W`` vanishes.  Two
lines meet at the cross product of their coefficient triples (parallel
lines give ``W == 0`` and meet nowhere), and the line through two points is
the cross product of their keys.  ``_meets`` tables every pairwise meet
under its key; the sparsity check and the hitting-set candidates and
masks are read from it.  The drawing and its checks build no ``Fraction``
beyond the vertex positions they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

RationalPoint = tuple[Fraction, Fraction]
# Homogeneous integer point (X, Y, W), gcd 1 and W > 0, standing for (X/W, Y/W).
PointKey = tuple[int, int, int]


class SparseLineRepError(Exception):
    """No sparse placement within the retry budget, or the full check
    rejected the drawing the retries accepted."""


@dataclass(frozen=True, order=True)
class RationalLine:
    """a*x + b*y + c = 0 with coprime integer coefficients, first nonzero > 0."""

    a: int
    b: int
    c: int

    @staticmethod
    def normalized(a: Fraction | int, b: Fraction | int, c: Fraction | int) -> "RationalLine":
        if a == 0 and b == 0:
            raise ValueError("not a line: both direction coefficients are zero")
        den = a.denominator * b.denominator * c.denominator
        if den == 1:
            return _reduced(a.numerator, b.numerator, c.numerator)
        return _reduced(*(int(v * den) for v in (a, b, c)))

    @staticmethod
    def through(p: RationalPoint, q: RationalPoint) -> "RationalLine":
        return _line_through(_key_of(p), _key_of(q))

    def contains(self, p: RationalPoint) -> bool:
        x, y = p
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        return self.a * xn * yd + self.b * yn * xd + self.c * xd * yd == 0


@dataclass
class SparseLineRep:
    """Vertex points plus one line per edge, with verified sparse incidences."""

    positions: dict[int, RationalPoint]
    lines: dict[tuple[int, int], RationalLine]


def _reduced(a: int, b: int, c: int) -> RationalLine:
    """The line ``a*x + b*y + c = 0`` in normal form: the coefficients
    divided by their gcd and signed so the first nonzero one is positive."""
    g = gcd(a, b, c)
    if (a if a else b) < 0:
        g = -g
    return RationalLine(a // g, b // g, c // g)


def _line_through(p: PointKey, q: PointKey) -> RationalLine:
    """The line through two points given by their keys: the cross product
    of the homogeneous triples, which is zero only for equal points."""
    x1, y1, w1 = p
    x2, y2, w2 = q
    a = y1 * w2 - w1 * y2
    b = w1 * x2 - x1 * w2
    if a == 0 and b == 0:
        raise ValueError("need two distinct points")
    return _reduced(a, b, x1 * y2 - y1 * x2)


def _norm(e: tuple[int, int]) -> tuple[int, int]:
    u, w = e
    return (u, w) if u < w else (w, u)


def _key(x: int, y: int, w: int) -> PointKey:
    """The key of the homogeneous point ``(x, y, w)``, ``w != 0``."""
    g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
    return (x // g, y // g, w // g)


def _key_of(p: RationalPoint) -> PointKey:
    """The homogeneous key of a rational point."""
    x, y = p
    xd, yd = x.denominator, y.denominator
    w = xd * yd // gcd(xd, yd)
    return (x.numerator * (w // xd), y.numerator * (w // yd), w)


def _point_of(key: PointKey) -> RationalPoint:
    """The rational point a key stands for."""
    x, y, w = key
    return (Fraction(x, w), Fraction(y, w))


def _meets(lines: Sequence[RationalLine]) -> dict[PointKey, int]:
    """Every pairwise intersection, keyed by its point, mapped to the bitmask
    of the lines through it, in first-seen ``(i, j)`` pair order.

    A line through a meet of two non-parallel lines meets one of them there,
    so each mask holds every line through its point, duplicates included.
    """
    coeffs = [(ln.a, ln.b, ln.c) for ln in lines]
    table: dict[PointKey, int] = {}
    for i, (a1, b1, c1) in enumerate(coeffs):
        bit_i = 1 << i
        for j in range(i + 1, len(coeffs)):
            a2, b2, c2 = coeffs[j]
            w = a1 * b2 - a2 * b1
            if w == 0:
                continue
            x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
            g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
            key = (x // g, y // g, w // g)
            table[key] = table.get(key, 0) | bit_i | (1 << j)
    return table


def _indices(mask: int) -> list[int]:
    """The line indices set in a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _first_pair(mask: int) -> tuple[int, int]:
    """The two lowest bits of a mask: for distinct lines through one point,
    the first ``(i, j)`` pair at which ``_meets`` lists that point."""
    low = mask & -mask
    rest = mask ^ low
    return low, rest & -rest


def verify_sparse(
    positions: dict[int, RationalPoint],
    lines: dict[tuple[int, int], RationalLine],
) -> int | None:
    """Return a vertex to perturb, or None when the drawing is sparse.

    Sparse means: all lines distinct; a vertex lies exactly on its incident
    lines; at most four lines through any point; three-plus concurrences only
    at vertex points.
    """
    edge_order = sorted(lines)
    line_seq = [lines[e] for e in edge_order]
    seen: dict[RationalLine, tuple[int, int]] = {}
    for e in edge_order:
        if lines[e] in seen:
            return max(e)
        seen[lines[e]] = e

    # The lines are distinct, so a vertex's lines are its edges' indices.
    incident = dict.fromkeys(positions, 0)
    for i, (u, w) in enumerate(edge_order):
        incident[u] |= 1 << i
        incident[w] |= 1 << i
    keys = {v: _key_of(pos) for v, pos in positions.items()}
    coeffs = [(ln.a, ln.b, ln.c) for ln in line_seq]
    for v, (x, y, w) in keys.items():
        on = 0
        for i, (a, b, c) in enumerate(coeffs):
            if a * x + b * y + c * w == 0:
                on |= 1 << i
        if on != incident[v]:
            return v

    vertex_keys = {key: v for v, key in keys.items()}
    for key, mask in _meets(line_seq).items():
        through = mask.bit_count()
        if through > 4 and key in vertex_keys:
            return vertex_keys[key]
        if through >= 3 and key not in vertex_keys:
            return max(v for i in _indices(mask) for v in edge_order[i])
    return None


class _Drawing:
    """A drawing under repair, keeping ``verify_sparse``'s verdict current as
    single vertices move.

    ``lines[i]`` is the line of ``edges[i]`` and ``meets`` holds the same
    masks as ``_meets(lines)``; ``crowded`` is its keys with three or more
    lines, and ``keys`` and ``owner`` map vertices to their keys and back.
    Moving a vertex recomputes only its edges' lines, their meets with every
    other line, and its key.
    """

    def __init__(self, positions: dict[int, RationalPoint], edges: list[tuple[int, int]]):
        self.positions = positions
        self.edges = edges
        self.keys = {v: _key_of(p) for v, p in positions.items()}
        self.lines = [_line_through(self.keys[u], self.keys[w]) for u, w in edges]
        self.incident = dict.fromkeys(positions, 0)  # bitmask of each vertex's edges
        for i, (u, w) in enumerate(edges):
            self.incident[u] |= 1 << i
            self.incident[w] |= 1 << i
        self.owner = {key: v for v, key in self.keys.items()}
        self.meets = _meets(self.lines)
        self.crowded = {key for key, mask in self.meets.items() if mask.bit_count() >= 3}

    def verdict(self) -> int | None:
        """``verify_sparse(positions, lines)``, read from the kept state."""
        seen = set()
        for e, ln in zip(self.edges, self.lines):
            if ln in seen:
                return max(e)
            seen.add(ln)
        # Lines are distinct now.  A vertex's own lines pass through it, so
        # any other line through it meets them there, in the mask at its key.
        for v, (x, y, w) in self.keys.items():
            own = self.incident[v]
            if own:
                if self.meets.get((x, y, w), 0) & ~own:
                    return v
            elif any(ln.a * x + ln.b * y + ln.c * w == 0 for ln in self.lines):
                return v
        bad = [
            key for key in self.crowded
            if key not in self.owner or self.meets[key].bit_count() > 4
        ]
        if not bad:
            return None
        key = min(bad, key=lambda k: _first_pair(self.meets[k]))
        if key in self.owner:
            return self.owner[key]
        return max(v for i in _indices(self.meets[key]) for v in self.edges[i])

    def move(self, v: int, pos: RationalPoint) -> None:
        """Put ``v`` at ``pos`` and redraw its edges' lines."""
        moved = _indices(self.incident[v])
        for n, i in enumerate(moved):
            for _, key in self._meets_of(i, skip=moved[: n + 1]):
                self._drop(key, 1 << i)
        del self.owner[self.keys[v]]
        self.positions[v] = pos
        self.keys[v] = _key_of(pos)
        self.owner[self.keys[v]] = v
        for i in moved:
            u, w = self.edges[i]
            self.lines[i] = _line_through(self.keys[u], self.keys[w])
        for n, i in enumerate(moved):
            for j, key in self._meets_of(i, skip=moved[n:]):
                mask = self.meets.get(key, 0) | (1 << i) | (1 << j)
                self.meets[key] = mask
                if mask.bit_count() >= 3:
                    self.crowded.add(key)

    def _meets_of(self, i: int, skip: list[int]):
        """``(j, key)`` for every line ``j`` outside ``skip`` meeting line ``i``."""
        a1, b1, c1 = self.lines[i].a, self.lines[i].b, self.lines[i].c
        for j, ln in enumerate(self.lines):
            a2, b2, c2 = ln.a, ln.b, ln.c
            w = a1 * b2 - a2 * b1
            if w != 0 and j not in skip:
                yield j, _key(b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, w)

    def _drop(self, key: PointKey, bit: int) -> None:
        """Take one line off a meet; the meet goes unless two distinct lines
        stay on it (two copies of one line meet nowhere)."""
        mask = self.meets.get(key, 0)
        if not mask & bit:
            return  # already dropped through another line of this meet
        rest = mask ^ bit
        if rest & (rest - 1) and len({self.lines[k] for k in _indices(rest)}) >= 2:
            self.meets[key] = rest
            if rest.bit_count() < 3:
                self.crowded.discard(key)
        else:
            del self.meets[key]
            self.crowded.discard(key)


def _place(
    vertices: list[int], edges: list[tuple[int, int]]
) -> tuple[dict[int, RationalPoint], dict[tuple[int, int], RationalLine]]:
    """The retry loop of ``sparse_line_rep``, one move per retry.  The drawing
    state goes when it returns, before the full check builds its own table."""
    rank = {v: i + 1 for i, v in enumerate(vertices)}
    drawing = _Drawing({v: (Fraction(rank[v]), Fraction(rank[v] ** 3)) for v in vertices}, edges)
    bumps: dict[int, int] = {}
    retries = 0
    while (culprit := drawing.verdict()) is not None:
        if retries == len(vertices):
            raise SparseLineRepError(f"no sparse placement within {retries} retries")
        retries += 1
        bumps[culprit] = bumps.get(culprit, 0) + 1
        r = rank[culprit]
        drawing.move(culprit, (Fraction(r), Fraction(r**3) + Fraction(bumps[culprit], 97)))
    return drawing.positions, dict(zip(edges, drawing.lines))


def sparse_line_rep(
    vertices: Sequence[int],
    edges: Iterable[tuple[int, int]],
) -> SparseLineRep:
    """Place vertices on the curve (r, r^3) and verify sparsity exactly.

    Positive ranks keep any three vertex points off a common line.  When some
    chords still meet badly, the vertex ``verify_sparse`` would name is nudged
    vertically by a small rational and only its lines are re-checked, within
    a budget of one retry per vertex.  The accepted drawing then gets one
    full ``verify_sparse``.
    """
    edge_list = sorted(_norm(e) for e in edges)
    positions, lines = _place(sorted(vertices), edge_list)
    culprit = verify_sparse(positions, lines)
    if culprit is not None:
        raise SparseLineRepError(
            f"full check rejects vertex {culprit} of the drawing the retries accepted"
        )
    return SparseLineRep(positions=positions, lines=lines)


def evaluate_hitting(
    points: Iterable[RationalPoint], lines: Sequence[RationalLine]
) -> int:
    """Exact count of lines incident to at least one of the points.

    A direct ``contains`` test per line and point, sharing no code with the
    meet table behind the engines' masks: the harness's recount stays an
    independent check on them.
    """
    pts = list(points)
    return sum(1 for ln in lines if any(ln.contains(p) for p in pts))
