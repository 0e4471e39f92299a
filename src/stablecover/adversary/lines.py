"""Exact point/line incidence over the rationals.

A graph is drawn with vertices on a cubic curve and edges as infinite lines;
the drawing is verified exactly so that three-or-more-line concurrences occur
only at vertex points and no point lies on five lines.  Floating point is
forbidden in this module: concurrency counts are the whole point.

Incidence is integer arithmetic.  A line ``(a, b, c)`` contains ``(x, y)``
when ``a*x + b*y + c`` vanishes, tested with the fractions' numerators and
denominators cross-multiplied.  Two lines meet at the cross product of their
coefficient triples, the homogeneous point ``(X, Y, W)`` standing for
``(X/W, Y/W)``; divided by ``gcd(X, Y, W)`` and signed so ``W > 0`` it is the
one key of that point (parallel lines give ``W == 0`` and meet nowhere).
``_meets`` tables every pairwise meet under that key; the census, the
sparsity check and the hitting-set candidates and masks are read from it.
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
    """Could not place the vertices sparsely within the retry budget."""


@dataclass(frozen=True, order=True)
class RationalLine:
    """a*x + b*y + c = 0 with coprime integer coefficients, first nonzero > 0."""

    a: int
    b: int
    c: int

    @staticmethod
    def normalized(a: Fraction, b: Fraction, c: Fraction) -> "RationalLine":
        if a == 0 and b == 0:
            raise ValueError("not a line: both direction coefficients are zero")
        den = a.denominator * b.denominator * c.denominator
        ia, ib, ic = (int(v * den) for v in (a, b, c))
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        lead = ia if ia != 0 else ib
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        return RationalLine(ia, ib, ic)

    @staticmethod
    def through(p: RationalPoint, q: RationalPoint) -> "RationalLine":
        if p == q:
            raise ValueError("need two distinct points")
        a = p[1] - q[1]
        b = q[0] - p[0]
        c = p[0] * q[1] - q[0] * p[1]
        return RationalLine.normalized(a, b, c)

    def contains(self, p: RationalPoint) -> bool:
        x, y = p
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        return self.a * xn * yd + self.b * yn * xd + self.c * xd * yd == 0


@dataclass
class SparseLineRep:
    """Vertex points plus one line per edge, with verified sparse incidences."""

    positions: dict[int, RationalPoint]
    lines: dict[tuple[int, int], RationalLine]

    def line_list(self) -> list[RationalLine]:
        return [self.lines[e] for e in sorted(self.lines)]

    def restrict(self, edges: Iterable[tuple[int, int]]) -> "SparseLineRep":
        sub = {e: self.lines[_norm(e)] for e in map(_norm, edges)}
        verts = {v for e in sub for v in e}
        return SparseLineRep(
            positions={v: self.positions[v] for v in verts}, lines=sub
        )


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
            key = _key(b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, w)
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


def concurrency_census(lines: Sequence[RationalLine]) -> dict[RationalPoint, set[int]]:
    """Map of every pairwise intersection point to the lines through it."""
    return {_point_of(key): set(_indices(mask)) for key, mask in _meets(lines).items()}


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

    incident: dict[int, set[RationalLine]] = {v: set() for v in positions}
    for (u, w), ln in lines.items():
        incident[u].add(ln)
        incident[w].add(ln)
    for v, pos in positions.items():
        for ln in line_seq:
            on = ln.contains(pos)
            if on and ln not in incident[v]:
                return v
            if not on and ln in incident[v]:
                return v

    vertex_keys = {_key_of(pos): v for v, pos in positions.items()}
    for key, mask in _meets(line_seq).items():
        through = mask.bit_count()
        if through > 4 and key in vertex_keys:
            return vertex_keys[key]
        if through >= 3 and key not in vertex_keys:
            return max(v for i in _indices(mask) for v in edge_order[i])
    return None


def sparse_line_rep(
    vertices: Sequence[int],
    edges: Iterable[tuple[int, int]],
    max_retries: int = 60,
) -> SparseLineRep:
    """Place vertices on the curve (r, r^3) and verify sparsity exactly.

    Positive ranks keep any three vertex points off a common line.  When some
    chords still meet badly, the offending vertex is nudged vertically by a
    small rational and verification reruns.
    """
    vertices = sorted(vertices)
    edge_list = sorted(_norm(e) for e in edges)
    rank = {v: i + 1 for i, v in enumerate(vertices)}
    positions: dict[int, RationalPoint] = {
        v: (Fraction(rank[v]), Fraction(rank[v] ** 3)) for v in vertices
    }
    bumps: dict[int, int] = {}
    for _ in range(max_retries):
        lines = {e: RationalLine.through(positions[e[0]], positions[e[1]]) for e in edge_list}
        culprit = verify_sparse(positions, lines)
        if culprit is None:
            return SparseLineRep(positions=positions, lines=lines)
        bumps[culprit] = bumps.get(culprit, 0) + 1
        r = rank[culprit]
        positions[culprit] = (
            Fraction(r),
            Fraction(r**3) + Fraction(bumps[culprit], 97),
        )
    raise SparseLineRepError(f"no sparse placement within {max_retries} retries")


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
