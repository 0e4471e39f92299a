"""Random 3-regular bipartite expanders via double covers.

Full expansion verification is exponential, so membership is checked by
sampling subsets and testing the neighborhood growth factor; generation
retries with fresh randomness until the sampled check passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class SeedExhaustionError(Exception):
    """No sampled-expander found within the retry budget."""


@dataclass
class BipartiteExpander:
    """Bipartite graph on L = {0..n-1}, R = {n..2n-1}."""

    n: int
    edges: list[tuple[int, int]]
    adjacency: dict[int, set[int]] = field(init=False)

    def __post_init__(self) -> None:
        adj: dict[int, set[int]] = {v: set() for v in range(2 * self.n)}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        self.adjacency = adj

    @property
    def left(self) -> range:
        return range(self.n)

    @property
    def right(self) -> range:
        return range(self.n, 2 * self.n)

    def neighbors(self, vertices) -> set[int]:
        out: set[int] = set()
        for v in vertices:
            out |= self.adjacency[v]
        return out

    def degrees(self) -> list[int]:
        return [len(self.adjacency[v]) for v in range(2 * self.n)]


def random_regular_edges(n: int, d: int, rng: random.Random) -> set[tuple[int, int]]:
    """Configuration model with full-restart rejection until simple."""
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    while True:
        stubs = list(range(n)) * d
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b:
                ok = False
                break
            e = (a, b) if a < b else (b, a)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return edges


def double_cover(base_edges: set[tuple[int, int]], n: int) -> BipartiteExpander:
    """Bipartite lift: base edge (i, j) becomes (u_i, w_j) and (u_j, w_i)."""
    edges = []
    for i, j in sorted(base_edges):
        edges.append((i, n + j))
        edges.append((j, n + i))
    return BipartiteExpander(n=n, edges=sorted(edges))


def random_bipartite_regular(n: int, d: int, rng: random.Random) -> BipartiteExpander:
    """Union of d random disjoint perfect matchings (for odd n, where no
    d-regular base graph exists to lift)."""
    while True:
        perms = []
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        if all(
            len({perm[i] for perm in perms}) == d for i in range(n)
        ):
            edges = sorted(
                (i, n + perm[i]) for perm in perms for i in range(n)
            )
            return BipartiteExpander(n=n, edges=edges)


def sampled_expansion_check(
    graph: BipartiteExpander,
    alpha: float,
    samples: int,
    seed: int = 0,
) -> bool:
    """Sample subsets S of either side with 2 <= |S| <= alpha*n and verify
    |N(S)| >= 1.99*|S|.  Singleton sets pass automatically (degree 3)."""
    n = graph.n
    smax = int(alpha * n)
    if smax < 2:
        return True
    rng = random.Random(seed)
    sides = (list(graph.left), list(graph.right))
    for k in range(samples):
        side = sides[k % 2]
        size = rng.randint(2, smax)
        subset = rng.sample(side, size)
        if len(graph.neighbors(subset)) < 1.99 * len(subset):
            return False
    return True


# random_expander's acceptance test: EXPANSION_SAMPLES subsets of size at most
# EXPANSION_ALPHA * n, on at most EXPANDER_TRIES sampled graphs.
EXPANSION_ALPHA = 0.1
EXPANSION_SAMPLES = 1000
EXPANDER_TRIES = 50


def random_expander(n: int, seed: int) -> BipartiteExpander:
    """3-regular bipartite expander with |L| = |R| = n.

    For even n this is the double cover of a random 3-regular graph; odd n
    falls back to a direct random bipartite 3-regular sample.  Resamples until
    the sampled expansion check passes.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    rng = random.Random(seed)
    for _ in range(EXPANDER_TRIES):
        if (3 * n) % 2 == 0:
            graph = double_cover(random_regular_edges(n, 3, rng), n)
        else:
            graph = random_bipartite_regular(n, 3, rng)
        check_seed = rng.randrange(2**30)
        if sampled_expansion_check(graph, EXPANSION_ALPHA, EXPANSION_SAMPLES, check_seed):
            return graph
    raise SeedExhaustionError(f"no expander for n={n} within {EXPANDER_TRIES} tries")


@dataclass
class ExtendedGraph:
    """An expander plus degree-3 attachment vertices on one side.

    Vertices 2n..2n+n/3-1 each connect to three distinct vertices of the
    attachment side, so that side's degrees rise to 4 while everything else
    stays at 3.
    """

    base: BipartiteExpander
    z_edges: list[tuple[int, int]]
    z_start: int

    def all_edges(self) -> list[tuple[int, int]]:
        return sorted(self.base.edges) + self.z_edges

    def degrees(self) -> dict[int, int]:
        deg: dict[int, int] = {v: 0 for v in range(2 * self.base.n)}
        for u, w in self.all_edges():
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        return deg


def _attach(graph: BipartiteExpander, targets: range, z_start: int) -> ExtendedGraph:
    n = graph.n
    if n % 3 != 0:
        raise ValueError("n must be divisible by 3")
    z_edges = []
    for i in range(n // 3):
        z = z_start + i
        for k in range(3):
            z_edges.append((z, targets[3 * i + k]))
    return ExtendedGraph(base=graph, z_edges=z_edges, z_start=z_start)


def build_GmL(graph: BipartiteExpander, z_start: int | None = None) -> ExtendedGraph:
    """Attach n/3 fresh degree-3 vertices, each to 3 unused R vertices."""
    return _attach(graph, graph.right, 2 * graph.n if z_start is None else z_start)


def build_GmR(graph: BipartiteExpander, z_start: int | None = None) -> ExtendedGraph:
    """Mirror construction attaching to L."""
    return _attach(graph, graph.left, 2 * graph.n if z_start is None else z_start)
