"""Integer line incidence against the ``Fraction`` reference it replaced.

The ``reference_*`` functions are the ``Fraction`` versions of
``RationalLine.contains``, ``concurrency_census`` (the tests' census over
``_meets``, in ``test_adversary``), ``hitting_candidates``,
``_hitting_masks``, ``verify_sparse``, ``RationalLine.normalized`` and
``RationalLine.through`` that integer code replaced, kept verbatim apart
from their names (and ``line_intersection``, which they call).  Candidate
order, masks, census and both oracles' ``solve_hitting`` output must agree
on seeded random line sets rich in duplicate, parallel, vertical,
horizontal and through-origin lines, and on every arrived prefix of
``gen_lines``; ``sparse_line_rep``'s incremental check must name the same
vertex on every drawing it tries, and ``verify_sparse`` on random
small-grid drawings.  The line through two points must equal the
reference's on random rational pairs, and ``parse_stream`` must read each
coefficient token as ``Fraction`` does.

The engines' ``HittingTable`` is checked against ``_candidate_table``, so
against the reference through it: after every triple it must read the same
keys, order and masks as the from-scratch table of the arrived lines.
"""

import functools
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_adversary import concurrency_census

from stablecover import static_solver
from stablecover.adversary import lines as lines_module
from stablecover.adversary import streams
from stablecover.adversary.lines import RationalLine, verify_sparse
from stablecover.harness_cli import HarnessError, gen_lines, parse_stream
from stablecover.static_solver import SolverBudgetError, SolverKind


def reference_normalized(a, b, c):
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


def reference_through(p, q):
    if p == q:
        raise ValueError("need two distinct points")
    a = p[1] - q[1]
    b = q[0] - p[0]
    c = p[0] * q[1] - q[0] * p[1]
    return reference_normalized(a, b, c)


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
        assert list(cands) == ref_cands
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
    def solved(lines, m):
        value, points = streams.solve_hitting(lines, m, kind)
        return value, points()

    runs = [(m, lines) for ms, lines, _, _ in reference_cases() for m in ms]
    got = [solved(lines, m) for m, lines in runs]
    tables = {tuple(lines): (cands, masks) for _, lines, cands, masks in reference_cases()}
    calls = {"hitting_candidates": 0, "_hitting_masks": 0}

    def reference_seam(name, part):
        def seam(lines, *_):
            calls[name] += 1
            return tables[tuple(lines)][part]
        return seam

    monkeypatch.setattr(streams, "hitting_candidates", reference_seam("hitting_candidates", 0))
    monkeypatch.setattr(streams, "_hitting_masks", reference_seam("_hitting_masks", 1))
    assert got == [solved(lines, m) for m, lines in runs]
    # A solve that bypassed either seam would not have read the reference.
    assert calls == {"hitting_candidates": len(runs), "_hitting_masks": len(runs)}


def assert_reads_candidate_table(table, lines):
    """The table reads the keys, order and masks of the from-scratch table."""
    cands = table.candidates()
    assert list(zip(cands._keys, cands.masks)) == list(streams._candidate_table(lines).items())


def assert_table_tracks(triples):
    """Extend a table triple by triple; after each, the table must read the
    arrived lines' table."""
    table = streams.HittingTable()
    arrived = []
    for triple in triples:
        table.extend(triple)
        arrived += triple
        assert_reads_candidate_table(table, arrived)


def in_triples(lines):
    return [lines[k:k + 3] for k in range(0, len(lines), 3)]


def test_table_tracks_reference_cases():
    for _, lines, _, _ in reference_cases():
        assert_table_tracks(in_triples(lines))


@pytest.mark.parametrize("m", [9, 12])
def test_table_tracks_every_gen_lines_prefix(m):
    for seed in (1, 2, 3):
        assert_table_tracks(parse_stream("\n".join(gen_lines(m, seed)) + "\n").line_steps)


def test_promoted_own_point_moves_into_its_block():
    # y = 1 and x = 2 meet at (2, 1); their own points (0, 1) and (2, 0)
    # form the tail.  y = x + 1 meets y = 1 at (0, 1), which leaves the tail
    # for the end of line 0's block, and x = 2 at (2, 3), in line 1's block.
    table = streams.HittingTable([RationalLine(0, 1, -1), RationalLine(1, 0, -2)])
    assert list(table.candidates()) == [(2, 1), (0, 1), (2, 0)]
    table.extend([RationalLine(1, -1, 1)])
    assert list(table.candidates()) == [(2, 1), (0, 1), (2, 3), (2, 0)]
    assert table.candidates().masks == [0b011, 0b101, 0b110, 0b010]


@st.composite
def line_sets(draw):
    """1-15 lines from coefficients in -3..3, each fresh, a copy, a
    parallel, vertical, horizontal, through the origin, or through an
    earlier line's own point, which then becomes a meet."""
    small = st.integers(-3, 3)
    lines = []
    for _ in range(draw(st.integers(1, 15))):
        a, b, c = draw(small), draw(small), draw(small)
        kind = draw(st.sampled_from(
            ["fresh", "copy", "parallel", "vertical", "horizontal", "origin", "own point"]
        )) if lines else "fresh"
        if kind in ("copy", "parallel", "own point"):
            ln = draw(st.sampled_from(lines))
        if kind == "copy":
            lines.append(ln)
            continue
        if kind == "parallel":
            a, b, c = ln.a, ln.b, ln.c + draw(st.integers(1, 4))
        elif kind == "vertical":
            b = 0
        elif kind == "horizontal":
            a = 0
        elif kind == "origin":
            c = 0
        if a == 0 and b == 0:
            a = 1
        if kind == "own point":
            x, y = lines_module._point_of(streams._own_key(ln))
            c = -(a * x + b * y)
        lines.append(RationalLine.normalized(Fraction(a), Fraction(b), Fraction(c)))
    return lines


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lines=line_sets())
def test_table_tracks_generated_line_sets(lines):
    assert_table_tracks(in_triples(lines))


@pytest.mark.parametrize(
    "cls, module, failing",
    [
        (streams.ExactHittingMaintainer, streams, "solve_hitting"),
        (streams.GreedyHittingMaintainer, streams, "solve_hitting"),
        # The value search succeeds; extracting the points raises.
        (streams.ExactHittingMaintainer, static_solver, "_extract"),
    ],
    ids=["ExactHittingMaintainer", "GreedyHittingMaintainer", "ExactHittingMaintainer-extraction"],
)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(lines=line_sets(), data=st.data())
def test_failed_triple_rolls_back_on_generated_line_sets(cls, module, failing, lines, data):
    """A triple whose solve or extraction raises leaves the lines and the
    points as they were and the table as the arrived lines' table, and the
    maintainer then replays the triple and the rest as a clean one does."""
    triples = in_triples(lines)
    m = data.draw(st.integers(1, 3), label="m")
    failed = data.draw(st.integers(0, len(triples) - 1), label="failed triple")
    mt, clean = cls(m), cls(m)
    for triple in triples[:failed]:
        mt.apply_triple(triple)
        clean.apply_triple(triple)
    arrived, points = list(mt.lines), mt.solution()
    with mock.patch.object(module, failing, side_effect=SolverBudgetError("out of budget")):
        with pytest.raises(SolverBudgetError):
            mt.apply_triple(triples[failed])
    assert mt.lines == arrived and mt.solution() == points
    assert_reads_candidate_table(mt.table, mt.lines)
    for triple in triples[failed:]:
        mt.apply_triple(triple)
        clean.apply_triple(triple)
        assert mt.lines == clean.lines and mt.solution() == clean.solution()
        assert_reads_candidate_table(mt.table, mt.lines)


@pytest.mark.parametrize("kind", [SolverKind.EXACT, SolverKind.GREEDY])
def test_solve_hitting_of_a_table_matches_solve_of_its_lines(kind):
    def solved(lines_or_table, m):
        value, points = streams.solve_hitting(lines_or_table, m, kind)
        return value, points()

    # No lines: value 0 and the m far points, from the general path.
    far = [streams._far_point(i, []) for i in range(2)]
    assert solved(streams.HittingTable(), 2) == solved([], 2) == (0, far)
    for ms, lines, _, _ in reference_cases():
        table = streams.HittingTable(lines)
        for m in ms:
            assert solved(table, m) == solved(lines, m)


def test_verify_sparse_matches_reference_on_gen_lines_retries(monkeypatch):
    # The incremental verdict of every retry, against the reference on the
    # drawing as it stands.
    verdicts = []
    incremental = lines_module._Drawing.verdict

    def checked(drawing):
        verdict = incremental(drawing)
        lines = dict(zip(drawing.edges, drawing.lines))
        assert verdict == reference_verify_sparse(drawing.positions, lines)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(lines_module._Drawing, "verdict", checked)
    for m in (6, 9, 12, 15):
        for seed in (1, 2, 3, 777):
            gen_lines(m, seed)
    assert verdicts.count(None) == 16 and len(verdicts) > 16


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

# Two crowded points off every vertex on the line of edge (0, 1): (0, 0) on
# the lines y = x and y = -2x, and (10, 0) on their parallels.  Each
# drawing gives the lower index pair (0, 1) to a different point, which then
# names 5 (the other would name 9).
_CROWDED_SPOTS = [(1, 1), (2, 2), (-1, 2), (-2, 4)], [(11, 1), (12, 2), (11, -2), (12, -4)]
TWO_CROWDED_ON_ONE_LINE = [
    grid_drawing([(3, 0), (7, 0), *first, *second], [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    for first, second in (_CROWDED_SPOTS, _CROWDED_SPOTS[::-1])
]


def test_verify_sparse_matches_reference_on_grid_drawings():
    assert verify_sparse(*FIVE_AT_VERTEX) == reference_verify_sparse(*FIVE_AT_VERTEX) == 0
    assert verify_sparse(*FIVE_OFF_VERTEX) == reference_verify_sparse(*FIVE_OFF_VERTEX) == 9
    for drawing in TWO_CROWDED_ON_ONE_LINE:
        assert verify_sparse(*drawing) == reference_verify_sparse(*drawing) == 5
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


def test_incremental_verdict_matches_reference_under_moves():
    # Small-grid drawings are rich in duplicate lines, crowded meets and
    # isolated vertices; after each move of a vertex to a free grid spot the
    # kept table equals a fresh one and the verdict the reference's.
    rng = random.Random(13)
    grid = [(x, y) for x in range(5) for y in range(5)]
    verdicts = set()
    drawings = [FIVE_AT_VERTEX, FIVE_OFF_VERTEX, *TWO_CROWDED_ON_ONE_LINE]
    for _ in range(300):
        spots = rng.sample(grid, rng.randint(3, 9))
        pairs = [(u, w) for u in range(len(spots)) for w in range(u + 1, len(spots))]
        drawings.append(grid_drawing(spots, rng.sample(pairs, rng.randint(1, min(len(pairs), 10)))))
    for positions, lines in drawings:
        drawing = lines_module._Drawing(dict(positions), sorted(lines))
        for _ in range(4):
            assert drawing.meets == lines_module._meets(drawing.lines)
            assert drawing.crowded == {k for k, mask in drawing.meets.items() if mask.bit_count() >= 3}
            now = dict(zip(drawing.edges, drawing.lines))
            verdict = drawing.verdict()
            assert verdict == reference_verify_sparse(drawing.positions, now)
            verdicts.add(verdict is None)
            taken = set(drawing.positions.values())
            x, y = rng.choice([s for s in grid if (Fraction(s[0]), Fraction(s[1])) not in taken])
            drawing.move(rng.choice(list(drawing.positions)), (Fraction(x), Fraction(y)))
    assert verdicts == {True, False}


def random_rational(rng):
    """Small or huge numerators, negative ones, and denominators that share
    factors, so a pair's keys rarely have equal ``W``."""
    scale = rng.choice((1, 1, 10**30 + 7))
    den = rng.choice((1, 2, 3, 4, 6, 12, 97, 582, 3 * 2**40))
    return Fraction(rng.randint(-24, 24) * scale, den)


def random_point_pairs(count=2000, seed=17):
    """Distinct pairs: generic, vertical, horizontal, through the origin
    (one point a multiple of the other) and from the origin."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p = (random_rational(rng), random_rational(rng))
        q = (random_rational(rng), random_rational(rng))
        kind = rng.randrange(5)
        if kind == 1:
            q = (p[0], q[1])
        elif kind == 2:
            q = (q[0], p[1])
        elif kind == 3:
            k = random_rational(rng)
            q = (p[0] * k, p[1] * k)
        elif kind == 4:
            p = (Fraction(0), Fraction(0))
        if p != q:
            pairs.append((p, q))
    return pairs


def through_mismatches(pairs):
    return sum(RationalLine.through(p, q) != reference_through(p, q) for p, q in pairs)


def test_through_matches_reference(monkeypatch):
    pairs = random_point_pairs()
    assert through_mismatches(pairs) == 0
    assert all(RationalLine.through(q, p) == RationalLine.through(p, q) for p, q in pairs)
    one = (Fraction(1, 2), Fraction(-3))
    for p, q in [(one, one), (one, (Fraction(2, 4), -3)), ((0, 0), (Fraction(0), Fraction(0)))]:
        with pytest.raises(ValueError):
            RationalLine.through(p, q)
    with pytest.raises(ValueError):
        reference_through(one, one)

    # The pairs are rich enough to catch a normal form without its sign fix
    # or without its gcd.
    def no_sign_fix(a, b, c):
        g = gcd(a, b, c)
        return RationalLine(a // g, b // g, c // g)

    def no_gcd(a, b, c):
        return RationalLine(a, b, c) if (a if a else b) > 0 else RationalLine(-a, -b, -c)

    for broken in (no_sign_fix, no_gcd):
        monkeypatch.setattr(lines_module, "_reduced", broken)
        assert through_mismatches(pairs) > 0


# Every token below goes in each coefficient slot of BASE_ROW; a few whole
# rows add the both-zero and sign-fix cases.  "²" is a digit to
# ``str.isdigit`` that neither ``int`` nor ``Fraction`` reads.
TOKENS = [
    "05", "+5", "-0", "-12", "1/2", "-3/6", "0.5", "1e3", "1_0", "--5", "-", "٥", "²",
    "nan", "inf", "1/0",
]
BASE_ROW = ["-6", "4", "10"]
TOKEN_ROWS = [
    "line " + " ".join(BASE_ROW[:slot] + [token] + BASE_ROW[slot + 1:])
    for token in TOKENS for slot in range(3)
] + ["line 0 -0 5", "line 0 -3 6", "line 6/4 -3 0", "line -0 0/7 1"]


def reference_parse_row(raw):
    a, b, c = (Fraction(tok) for tok in raw.split()[1:])
    return reference_normalized(a, b, c)


@pytest.mark.parametrize("raw", TOKEN_ROWS)
def test_parse_stream_reads_tokens_as_fraction_does(raw):
    text = f"{raw}\nline 1 0 0\nline 0 1 0\n"
    try:
        expected = reference_parse_row(raw)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(HarnessError) as info:
            parse_stream(text)
        assert str(info.value) == f"malformed stream line 1: {raw!r} ({exc})"
    else:
        line = parse_stream(text).line_steps[0][0]
        assert line == expected
        assert {type(line.a), type(line.b), type(line.c)} == {int}
