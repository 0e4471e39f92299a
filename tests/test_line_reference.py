"""Integer line incidence against the ``Fraction`` reference it replaced.

The ``reference_*`` functions are the ``Fraction`` versions of
``RationalLine.contains``, ``concurrency_census``, ``hitting_candidates``,
``_hitting_masks`` and ``verify_sparse`` that the meet table replaced, kept
verbatim apart from their names (and ``line_intersection``, which they
call).  Candidate order, masks, census and both oracles' ``solve_hitting``
output must agree on seeded random line sets rich in duplicate, parallel,
vertical, horizontal and through-origin lines, and on every arrived prefix
of ``gen_lines``; ``verify_sparse`` must name the same vertex on every
drawing ``sparse_line_rep`` tries and on random small-grid drawings.
"""

import functools
import random
from fractions import Fraction

import pytest

from stablecover.adversary import lines as lines_module
from stablecover.adversary import streams
from stablecover.adversary.lines import RationalLine, concurrency_census, verify_sparse
from stablecover.harness_cli import gen_lines, parse_stream
from stablecover.static_solver import SolverKind


def reference_contains(ln, p):
    return ln.a * p[0] + ln.b * p[1] + ln.c == 0


def reference_line_intersection(l1, l2):
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return (x, y)


def reference_concurrency_census(lines):
    census = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = reference_line_intersection(lines[i], lines[j])
            if pt is None:
                continue
            census.setdefault(pt, set()).update((i, j))
    return census


def reference_hitting_candidates(lines):
    cands = []
    seen = set()

    def emit(p):
        if p not in seen:
            seen.add(p)
            cands.append(p)

    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = reference_line_intersection(lines[i], lines[j])
            if pt is not None:
                emit(pt)
    for ln in lines:
        if ln.b != 0:
            emit((Fraction(0), Fraction(-ln.c, ln.b)))
        else:
            emit((Fraction(-ln.c, ln.a), Fraction(0)))
    return cands


def reference_hitting_masks(lines, cands):
    masks = []
    for p in cands:
        mask = 0
        for i, ln in enumerate(lines):
            if reference_contains(ln, p):
                mask |= 1 << i
        masks.append(mask)
    return masks


def reference_verify_sparse(positions, lines):
    edge_order = sorted(lines)
    line_seq = [lines[e] for e in edge_order]
    seen = {}
    for e in edge_order:
        if lines[e] in seen:
            return max(e)
        seen[lines[e]] = e

    incident = {v: set() for v in positions}
    for (u, w), ln in lines.items():
        incident[u].add(ln)
        incident[w].add(ln)
    for v, pos in positions.items():
        for ln in line_seq:
            on = reference_contains(ln, pos)
            if on and ln not in incident[v]:
                return v
            if not on and ln in incident[v]:
                return v

    vertex_points = {pos: v for v, pos in positions.items()}
    for pt, through in reference_concurrency_census(line_seq).items():
        if len(through) > 4:
            owner = vertex_points.get(pt)
            if owner is not None:
                return owner
            return max(v for i in through for v in edge_order[i])
        if len(through) >= 3 and pt not in vertex_points:
            return max(v for i in through for v in edge_order[i])
    return None


def random_line(rng):
    """A line from small coefficients, so that concurrences are common;
    three in eight are forced vertical, horizontal or through the origin."""
    while True:
        a, b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        kind = rng.randrange(8)
        if kind == 0:
            b = Fraction(0)
        elif kind == 1:
            a = Fraction(0)
        elif kind == 2:
            c = Fraction(0)
        if a or b:
            return RationalLine.normalized(a, b, c)


def random_line_sets(count=120, seed=7):
    """Seeded sets of 1-14 lines with duplicates and parallels mixed in."""
    rng = random.Random(seed)
    for _ in range(count):
        lines = []
        for _ in range(rng.randint(1, 14)):
            roll = rng.random()
            if lines and roll < 0.2:
                lines.append(rng.choice(lines))  # a duplicate
            elif lines and roll < 0.35:
                ln = rng.choice(lines)  # a parallel
                lines.append(RationalLine.normalized(
                    Fraction(ln.a), Fraction(ln.b), Fraction(ln.c + rng.randint(1, 5))
                ))
            else:
                lines.append(random_line(rng))
        yield lines


# A vertical line twice, its parallel, and a horizontal line: the
# duplicates' own point (3, 0) lies on no other line, so only the duplicate
# bits mark it.
DUPLICATE_OWN_POINT = [
    RationalLine(1, 0, -3), RationalLine(1, 0, -3), RationalLine(1, 0, 2), RationalLine(0, 1, -1),
]


def gen_lines_prefixes():
    """``((m,), prefix, candidates, masks)`` for every arrived prefix (one per
    triple) of ``gen_lines`` at m 6-15, all from the reference.

    Each stream's masks are computed once over all its lines; a prefix's
    lines keep their indices and its candidates are among the stream's, so
    its reference masks are the stream's masks cut to the prefix's bits.
    """
    for m in (6, 9, 12, 15):
        steps = parse_stream("\n".join(gen_lines(m, seed=1)) + "\n").line_steps
        lines = [ln for triple in steps for ln in triple]
        cands = reference_hitting_candidates(lines)
        full = dict(zip(cands, reference_hitting_masks(lines, cands)))
        n = 0
        for triple in steps:
            n += len(triple)
            prefix = lines[:n]
            prefix_cands = reference_hitting_candidates(prefix)
            yield (m,), prefix, prefix_cands, [full[p] & ((1 << n) - 1) for p in prefix_cands]


@functools.cache
def reference_cases():
    """``(ms, lines, candidates, masks)``: the crafted duplicate case and the
    random sets, solved at m 1-3, then the ``gen_lines`` prefixes."""
    cases = []
    for lines in [DUPLICATE_OWN_POINT, *random_line_sets()]:
        cands = reference_hitting_candidates(lines)
        cases.append(((1, 2, 3), lines, cands, reference_hitting_masks(lines, cands)))
    cases += gen_lines_prefixes()
    return cases


def test_contains_matches_reference():
    rng = random.Random(3)
    for lines in random_line_sets(count=40):
        points = reference_hitting_candidates(lines) + [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            for _ in range(20)
        ]
        for ln in lines:
            for p in points:
                assert ln.contains(p) == reference_contains(ln, p)


def test_candidates_and_masks_match_reference():
    for _, lines, ref_cands, ref_masks in reference_cases():
        cands = streams.hitting_candidates(lines)
        assert cands == ref_cands
        assert streams._hitting_masks(lines, cands) == ref_masks


def test_duplicate_lines_mark_their_own_point():
    cands = streams.hitting_candidates(DUPLICATE_OWN_POINT)
    masks = dict(zip(cands, streams._hitting_masks(DUPLICATE_OWN_POINT, cands)))
    assert masks[(Fraction(3), Fraction(0))] == 0b0011


def test_census_matches_reference():
    for _, lines, _, _ in reference_cases():
        census = concurrency_census(lines)
        ref = reference_concurrency_census(lines)
        assert census == ref
        assert list(census) == list(ref)


@pytest.mark.parametrize("kind", [SolverKind.EXACT, SolverKind.GREEDY])
def test_solve_hitting_matches_reference(kind, monkeypatch):
    runs = [(m, lines) for ms, lines, _, _ in reference_cases() for m in ms]
    got = [streams.solve_hitting(lines, m, kind) for m, lines in runs]
    tables = {tuple(lines): (cands, masks) for _, lines, cands, masks in reference_cases()}
    monkeypatch.setattr(streams, "hitting_candidates", lambda lines: tables[tuple(lines)][0])
    monkeypatch.setattr(streams, "_hitting_masks", lambda lines, _: tables[tuple(lines)][1])
    assert got == [streams.solve_hitting(lines, m, kind) for m, lines in runs]


def test_verify_sparse_matches_reference_on_gen_lines_retries(monkeypatch):
    verdicts = []

    def checked(positions, lines):
        verdict = verify_sparse(positions, lines)
        assert verdict == reference_verify_sparse(positions, lines)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(lines_module, "verify_sparse", checked)
    for m in (6, 9, 12, 15):
        gen_lines(m, seed=1)
    assert verdicts.count(None) == 4 and len(verdicts) > 4


def grid_drawing(spots, edges):
    positions = {v: (Fraction(x), Fraction(y)) for v, (x, y) in enumerate(spots)}
    lines = {e: RationalLine.through(positions[e[0]], positions[e[1]]) for e in edges}
    return positions, lines


# Five lines through one point: a vertex of degree five (vertex 0), and
# five chords through the origin, which is no vertex (the largest vertex on
# them is 9).
FIVE_AT_VERTEX = grid_drawing(
    [(2, 2), (0, 0), (2, 0), (4, 0), (0, 2), (0, 1)], [(0, v) for v in range(1, 6)]
)
FIVE_OFF_VERTEX = grid_drawing(
    [(1, 1), (2, 2), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 4), (2, 1), (4, 2)],
    [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
)


def test_verify_sparse_matches_reference_on_grid_drawings():
    assert verify_sparse(*FIVE_AT_VERTEX) == reference_verify_sparse(*FIVE_AT_VERTEX) == 0
    assert verify_sparse(*FIVE_OFF_VERTEX) == reference_verify_sparse(*FIVE_OFF_VERTEX) == 9
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        spots = rng.sample([(x, y) for x in range(5) for y in range(5)], rng.randint(3, 9))
        pairs = [(u, w) for u in range(len(spots)) for w in range(u + 1, len(spots))]
        drawing = grid_drawing(spots, rng.sample(pairs, rng.randint(1, min(len(pairs), 10))))
        verdict = verify_sparse(*drawing)
        assert verdict == reference_verify_sparse(*drawing)
        verdicts.add(verdict is None)
    assert verdicts == {True, False}
