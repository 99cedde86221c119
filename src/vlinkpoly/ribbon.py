"""Signed ribbon graphs as rotation systems with twist bits.

A ribbon graph is a surface with boundary built from vertex discs and
edge bands. Combinatorially: each vertex is a counterclockwise cyclic
sequence of half-edge ids (the rotation), and each edge joins two
distinct half-edges, carries a twist bit (1 = the band attaches with a
half twist, possibly nonorientable), and a sign in {+1, -1}.

Spanning subgraphs keep all vertices and any subset of edges. For a
subgraph F of a graph G with v vertices:

    k(F)  connected components          r(F) = v - k(F)   rank
    e(F)  number of included edges      n(F) = e(F) - r(F) nullity
    bc(F) boundary components of the surface restricted to F
    s(F)  = (e_minus(F) - e_minus(complement)) / 2, a half-integer

The signed Bollobas-Riordan polynomial is the sum over all 2^e spanning
subgraphs of x^(r(G)-r(F)+s(F)) y^(n(F)-s(F)) z^(k(F)-bc(F)+n(F)); x and
y carry granularity 2 because s(F) can be a half-integer.

Boundary tracing convention: every included half-edge contributes two
boundary-strand ends, one on each side of the band. Walking a vertex
disc boundary from one included attachment to the next connects the
out-side of the first to the in-side of the next; an untwisted band
connects each in-side to the opposite end's out-side, a twisted band
connects in to in and out to out. Each vertex with no included
attachment is a free disc and adds one boundary circle. Calibration: an
untwisted loop on one vertex is an annulus (bc = 2), a twisted loop is a
Moebius band (bc = 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import DEFAULT_MAX_CROSSINGS, VirtualLinkDiagram, _check_cap
from .polyring import LaurentPoly, Ring
from .walk import RollbackUnionFind, walk

__all__ = [
    "BR_RING",
    "TUTTE_RING",
    "DEFAULT_MAX_EDGES",
    "RibbonError",
    "Edge",
    "RibbonGraph",
    "SpanningSubgraph",
    "SubgraphStats",
    "components",
    "boundary_components",
    "stats",
    "orientable",
    "bollobas_riordan",
    "brpoly_partial",
    "tutte",
    "from_diagram",
    "parse_ribbon",
    "print_ribbon",
    "random_ribbon_graph",
]

BR_RING = Ring(("x", "y", "z"), (2, 2, 1))
TUTTE_RING = Ring(("x", "y"))

# Soft cap on edges for full subgraph enumeration: the Seifert-circle graph
# has one edge per crossing, so it is the diagram's crossing cap.
DEFAULT_MAX_EDGES = DEFAULT_MAX_CROSSINGS


class RibbonError(ValueError):
    """Invalid ribbon graph text or structure."""


@dataclass(frozen=True)
class Edge:
    """An edge band joining half-edges a and b, with twist bit and sign."""

    a: int
    b: int
    twisted: bool
    sign: int

    def __post_init__(self) -> None:
        for h in (self.a, self.b):
            if not isinstance(h, int) or h < 1:
                raise RibbonError(f"half-edge ids must be positive integers, got {h!r}")
        if self.a == self.b:
            raise RibbonError(f"edge joins half-edge {self.a} to itself; ids must differ")
        if self.twisted not in (False, True, 0, 1):
            raise RibbonError(f"twist must be 0 or 1, got {self.twisted!r}")
        object.__setattr__(self, "twisted", bool(self.twisted))
        if self.sign not in (1, -1):
            raise RibbonError(f"edge sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class RibbonGraph:
    """Rotation system: per-vertex counterclockwise half-edge cycles + edges."""

    rotations: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    _vertex_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rotations = tuple(tuple(rot) for rot in self.rotations)
        edges = tuple(self.edges)
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "edges", edges)
        vertex_of: dict[int, int] = {}
        for vi, rot in enumerate(rotations):
            for h in rot:
                if not isinstance(h, int) or h < 1:
                    raise RibbonError(f"half-edge ids must be positive integers, got {h!r}")
                if h in vertex_of:
                    raise RibbonError(f"half-edge {h} appears twice in the vertex rotations")
                vertex_of[h] = vi
        in_edges: set[int] = set()
        for e in edges:
            for h in (e.a, e.b):
                if h in in_edges:
                    raise RibbonError(f"half-edge {h} appears in two edges")
                in_edges.add(h)
        if set(vertex_of) != in_edges:
            orphans = sorted(set(vertex_of) ^ in_edges)
            raise RibbonError(
                f"half-edges must each appear in exactly one vertex and one edge; "
                f"mismatched ids: {orphans}"
            )
        object.__setattr__(self, "_vertex_of", vertex_of)

    @property
    def v(self) -> int:
        return len(self.rotations)

    @property
    def e(self) -> int:
        return len(self.edges)

    def vertex_of(self, half: int) -> int:
        return self._vertex_of[half]


@dataclass(frozen=True)
class SpanningSubgraph:
    """All vertices of `parent`, plus the edges whose indices are included."""

    parent: RibbonGraph
    included: frozenset[int]

    def __post_init__(self) -> None:
        included = frozenset(self.included)
        object.__setattr__(self, "included", included)
        for i in included:
            if not isinstance(i, int) or not (0 <= i < len(self.parent.edges)):
                raise RibbonError(f"edge index {i!r} out of range")


@dataclass(frozen=True)
class SubgraphStats:
    """The statistics of one spanning subgraph; s is kept in half-units."""

    v: int
    e: int
    k: int
    r: int
    n: int
    bc: int
    e_minus: int
    s_twice: int

    @property
    def s(self) -> Fraction:
        return Fraction(self.s_twice, 2)


def components(sub: SpanningSubgraph) -> int:
    """k(F): connected components of the vertex / included-edge structure."""
    g = sub.parent
    uf = RollbackUnionFind(g.v)
    for i in sub.included:
        e = g.edges[i]
        uf.union(g.vertex_of(e.a), g.vertex_of(e.b))
    return uf.counts[0]


def boundary_components(sub: SpanningSubgraph) -> int:
    """bc(F): boundary circles of the ribbon surface restricted to F.

    Implements the strand-end tracing described in the module docstring:
    ports (h, side) with side 0 = in, 1 = out; every port receives exactly
    one vertex link and one edge link, so the links decompose into disjoint
    cycles, one per boundary circle. This is the per-subgraph reference;
    the subgraph sums walk `_band_links` instead.
    """
    g = sub.parent
    halves: set[int] = set()
    for i in sub.included:
        halves.add(g.edges[i].a)
        halves.add(g.edges[i].b)

    port_ids: dict[tuple[int, int], int] = {}
    for h in sorted(halves):
        for side in (0, 1):
            port_ids[(h, side)] = len(port_ids)
    uf = RollbackUnionFind(len(port_ids))

    def link(p: tuple[int, int], q: tuple[int, int]) -> None:
        uf.union(port_ids[p], port_ids[q])

    free_discs = 0
    for rot in g.rotations:
        present = [h for h in rot if h in halves]
        if not present:
            free_discs += 1
            continue
        m = len(present)
        for i in range(m):
            link((present[i], 1), (present[(i + 1) % m], 0))
    for i in sub.included:
        e = g.edges[i]
        if e.twisted:
            link((e.a, 0), (e.b, 0))
            link((e.a, 1), (e.b, 1))
        else:
            link((e.a, 0), (e.b, 1))
            link((e.b, 0), (e.a, 1))
    return uf.counts[0] + free_discs


def _subgraph_stats(
    v: int, e: int, k: int, bc: int, e_minus: int, e_minus_total: int
) -> SubgraphStats:
    """The statistics of a subgraph from its counts; G has e_minus_total negative edges."""
    r = v - k
    return SubgraphStats(v, e, k, r, e - r, bc, e_minus, 2 * e_minus - e_minus_total)


def stats(sub: SpanningSubgraph) -> SubgraphStats:
    """All statistics of one spanning subgraph, exactly."""
    g = sub.parent
    e_minus = sum(1 for i in sub.included if g.edges[i].sign == -1)
    e_minus_total = sum(1 for edge in g.edges if edge.sign == -1)
    return _subgraph_stats(
        g.v, len(sub.included), components(sub), boundary_components(sub), e_minus, e_minus_total
    )


def _band_links(
    g: RibbonGraph, base: int = 0
) -> tuple[list[tuple[int, int]], list[tuple[tuple[tuple[int, int], ...], ...]]]:
    """The port model of bc(F) and k(F) as union-find links.

    Every half-edge h has two ports, in and out, numbered from `base` in
    half-edge id order; the v vertices follow the ports. The fixed links
    join (h_j, out) to (h_j+1, in) around each rotation. An excluded edge
    links each of its half-edges' own in and out ports, so the boundary
    runs past it; an included edge links its band, in-in and out-out if
    twisted, in-out crosswise if not, and joins its two vertices. Then
    bc(F) is the port component count plus the number of empty-rotation
    vertices, and k(F) is the vertex component count. Returns the fixed
    links and, per edge, (links if excluded, links if included).
    """
    port = {h: base + 2 * j for j, h in enumerate(sorted(g._vertex_of))}
    vertex_base = base + 2 * len(port)
    fixed = [
        (port[rot[j]] + 1, port[rot[(j + 1) % len(rot)]])
        for rot in g.rotations
        for j in range(len(rot))
    ]
    choices = []
    for e in g.edges:
        a, b = port[e.a], port[e.b]
        band = ((a, b), (a + 1, b + 1)) if e.twisted else ((a, b + 1), (b, a + 1))
        join = (vertex_base + g.vertex_of(e.a), vertex_base + g.vertex_of(e.b))
        choices.append((((a, a + 1), (b, b + 1)), band + (join,)))
    return fixed, choices


def orientable(sub: SpanningSubgraph) -> bool:
    """True iff the included bands admit a consistent two-sided coloring.

    Equivalently: no cycle of included edges has an odd number of twists.
    """
    g = sub.parent
    adjacency: dict[int, list[tuple[int, bool]]] = {u: [] for u in range(g.v)}
    for i in sub.included:
        e = g.edges[i]
        u, w = g.vertex_of(e.a), g.vertex_of(e.b)
        if u == w:
            if e.twisted:
                return False
            continue
        adjacency[u].append((w, e.twisted))
        adjacency[w].append((u, e.twisted))
    color: dict[int, int] = {}
    for start in range(g.v):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w, twisted in adjacency[u]:
                want = color[u] ^ int(twisted)
                if w not in color:
                    color[w] = want
                    queue.append(w)
                elif color[w] != want:
                    return False
    return True


def brpoly_partial(g: RibbonGraph, start: int, stop: int) -> LaurentPoly:
    """Bollobas-Riordan contribution of subgraph bitmasks in [start, stop).

    Bit i of a mask includes edge i. One depth-first walk over the edges,
    from edge e-1 (the top bit) down to edge 0, keeps the port and vertex
    union-finds of the current mask prefix (see `_band_links`). Merging
    the partials of any partition of [0, 2^e) reproduces bollobas_riordan
    exactly.
    """
    fixed, choices = _band_links(g)
    uf = RollbackUnionFind(4 * g.e, g.v)
    for x, y in fixed:
        uf.union(x, y)
    counts = uf.counts
    negative = sum(1 << i for i, edge in enumerate(g.edges) if edge.sign == -1)
    acc: dict[tuple[int, int, int, int], int] = {}
    for mask in walk(uf, choices[::-1], start, stop):
        key = (mask.bit_count(), (mask & negative).bit_count(), counts[1], counts[0])
        acc[key] = acc.get(key, 0) + 1
    return _brpoly_from_counts(g, acc)


def _brpoly_from_counts(g: RibbonGraph, acc: dict[tuple[int, int, int, int], int]) -> LaurentPoly:
    """The BR terms of {(e(F), e_minus(F), k(F), port components): number of subgraphs}."""
    rank_g = g.v - components(SpanningSubgraph(g, frozenset(range(g.e))))
    free_discs = sum(1 for rot in g.rotations if not rot)
    e_minus_total = sum(1 for edge in g.edges if edge.sign == -1)
    terms = []
    for (e, e_minus, k, ports), count in acc.items():
        st = _subgraph_stats(g.v, e, k, ports + free_discs, e_minus, e_minus_total)
        key = (2 * (rank_g - st.r) + st.s_twice, 2 * st.n - st.s_twice, st.k - st.bc + st.n)
        terms.append((key, count))
    return BR_RING.from_terms(terms)


def bollobas_riordan(g: RibbonGraph, max_edges: int = DEFAULT_MAX_EDGES) -> LaurentPoly:
    """The signed Bollobas-Riordan polynomial (sum over all 2^e subgraphs)."""
    _check_cap(g.e, max_edges, "edges")
    return brpoly_partial(g, 0, 1 << g.e)


def tutte(g: RibbonGraph, max_edges: int = DEFAULT_MAX_EDGES) -> LaurentPoly:
    """Tutte polynomial of the core multigraph by deletion and contraction.

    Twists and rotations are ignored; all edge signs must be +1. Loops
    multiply by y, bridges by x, and any other edge splits into the sum of
    its deletion and its contraction.
    """
    for e in g.edges:
        if e.sign != 1:
            raise RibbonError("tutte is defined here for all-positive ribbon graphs only")
    _check_cap(g.e, max_edges, "edges")
    core = [(g.vertex_of(e.a), g.vertex_of(e.b)) for e in g.edges]
    x = TUTTE_RING.variable("x")
    y = TUTTE_RING.variable("y")

    def is_bridge(u: int, w: int, rest: list[tuple[int, int]]) -> bool:
        reach = {u}
        frontier = [u]
        while frontier:
            node = frontier.pop()
            for (a, b) in rest:
                if a == node and b not in reach:
                    reach.add(b)
                    frontier.append(b)
                elif b == node and a not in reach:
                    reach.add(a)
                    frontier.append(a)
        return w not in reach

    def recurse(edges: list[tuple[int, int]]) -> LaurentPoly:
        if not edges:
            return TUTTE_RING.one()
        (u, w), rest = edges[0], edges[1:]
        if u == w:
            return y * recurse(rest)
        contracted = [(u if a == w else a, u if b == w else b) for (a, b) in rest]
        if is_bridge(u, w, rest):
            return x * recurse(contracted)
        return recurse(rest) + recurse(contracted)

    return recurse(core)


def from_diagram(
    diagram: VirtualLinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> RibbonGraph:
    """The Seifert-circle ribbon graph of an oriented diagram.

    Vertices are the Seifert circles, each recorded as the counterclockwise
    cycle of crossing attachments in the order the circle visits them; free
    loops become isolated vertices. There is one edge per classical
    crossing, joining its two attachments, always twisted, signed by the
    crossing sign. Crossing i (0-based) owns half-edges 2i+1 and 2i+2;
    2i+1 marks the Seifert transition that leaves the incoming under-strand
    arc. Circles are listed in order of their smallest arc id, starting at
    the transition out of that arc. More than 2^max_crossings free loops
    raise EnumerationCapError.
    """
    _check_cap(0, max_crossings, free_loops=diagram.free_loops)
    # Seifert transitions: each arc, at its incoming occurrence, continues
    # along the unique orientation-preserving splitting. At a positive
    # crossing that splitting is A and pairs (s0,s1), (s2,s3); at a negative
    # crossing it is B and pairs (s0,s3), (s1,s2).
    successor: dict[int, tuple[int, int]] = {}
    for ci, c in enumerate(diagram.crossings):
        s0, s1, s2, s3 = c.slots
        h1, h2 = 2 * ci + 1, 2 * ci + 2
        if diagram.signs[ci] == 1:
            successor[s0] = (s1, h1)
            successor[s3] = (s2, h2)
        else:
            successor[s0] = (s3, h1)
            successor[s1] = (s2, h2)
    rotations: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in sorted(successor):
        if start in seen:
            continue
        marks: list[int] = []
        arc = start
        while arc not in seen:
            seen.add(arc)
            arc, half = successor[arc]
            marks.append(half)
        rotations.append(tuple(marks))
    rotations.extend(() for _ in range(diagram.free_loops))
    edges = tuple(
        Edge(2 * ci + 1, 2 * ci + 2, True, diagram.signs[ci]) for ci in range(diagram.n)
    )
    return RibbonGraph(tuple(rotations), edges)


def parse_ribbon(text: str) -> RibbonGraph:
    """Parse the line-oriented ribbon format.

    Lines (after stripping `#` comments and blanks):
      V h1 h2 ... hk   one vertex, half-edge ids counterclockwise
                       (a bare V is an isolated vertex);
      E a b t s        edge joining half-edges a and b, twist t in {0,1},
                       sign s in {+,-}.
    """
    rotations: list[tuple[int, ...]] = []
    edges: list[Edge] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "V":
            try:
                rot = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise RibbonError(f"line {ln}: half-edge ids must be integers") from None
            rotations.append(rot)
        elif fields[0] == "E":
            if len(fields) != 5:
                raise RibbonError(f"line {ln}: E needs half-edges, twist, and sign")
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise RibbonError(f"line {ln}: half-edge ids must be integers") from None
            if fields[3] not in ("0", "1"):
                raise RibbonError(f"line {ln}: twist must be 0 or 1, got {fields[3]!r}")
            if fields[4] not in ("+", "-"):
                raise RibbonError(f"line {ln}: sign must be + or -, got {fields[4]!r}")
            edges.append(Edge(a, b, fields[3] == "1", 1 if fields[4] == "+" else -1))
        else:
            raise RibbonError(f"line {ln}: unknown record {fields[0]!r} (expected V or E)")
    return RibbonGraph(tuple(rotations), tuple(edges))


def print_ribbon(g: RibbonGraph) -> str:
    """Serialize back to the ribbon format (V lines, then E lines)."""
    lines = []
    for rot in g.rotations:
        lines.append("V" + "".join(f" {h}" for h in rot))
    for e in g.edges:
        lines.append(f"E {e.a} {e.b} {1 if e.twisted else 0} {'+' if e.sign == 1 else '-'}")
    return "\n".join(lines) + "\n" if lines else ""


def random_ribbon_graph(n_edges: int, seed: int, all_positive: bool = False) -> RibbonGraph:
    """Deterministic pseudo-random ribbon graph with n_edges edges.

    Half-edges are scattered over a random number of vertices (some may end
    up isolated), paired at random, and given random twists; signs are
    random unless all_positive is set. Same arguments, same graph.
    """
    if n_edges < 0:
        raise ValueError("n_edges must be nonnegative")
    rng = random.Random(seed)
    n_vertices = rng.randint(1, n_edges + 2)
    buckets: list[list[int]] = [[] for _ in range(n_vertices)]
    for h in range(1, 2 * n_edges + 1):
        buckets[rng.randrange(n_vertices)].append(h)
    for bucket in buckets:
        rng.shuffle(bucket)
    paired = list(range(1, 2 * n_edges + 1))
    rng.shuffle(paired)
    edges = tuple(
        Edge(
            paired[2 * i],
            paired[2 * i + 1],
            bool(rng.getrandbits(1)),
            1 if all_positive else rng.choice((1, -1)),
        )
        for i in range(n_edges)
    )
    return RibbonGraph(tuple(tuple(b) for b in buckets), edges)
