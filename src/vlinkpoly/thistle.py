"""The bracket / Bollobas-Riordan correspondence, verified exactly.

For an oriented diagram L with Seifert-circle ribbon graph G (see
ribbon.from_diagram), writing n = nullity(G), r = rank(G), and
k = components(G):

    bracket(L)(A, B, d) = A^n B^r d^(k-1) * R_G(A*d/B, B*d/A, 1/d)

The two sides are computed from disjoint data (diagram arc splicings
versus ribbon ports and vertices, sharing only the walk order and the
polynomial ring), so the equality check cross-validates both. The
underlying bijection sends a state S to the spanning subgraph F(S)
containing exactly the edges of crossings where S differs from the
Seifert state, and term by term

    e(G) - e(F) + 2s(F) = alpha(S)
    e(F) - 2s(F)        = beta(S)
    bc(F)               = delta(S)

so each state's bracket monomial A^alpha B^beta d^(delta-1) equals the
transformed subgraph monomial A^(e-e(F)+2s) B^(e(F)-2s) d^(bc-1).

random_diagram generates arbitrary abstract codes, mostly not realizable
in the plane; the identity covers them all, so fuzzing needs no planarity
filter.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

from .diagram import (
    DEFAULT_MAX_CROSSINGS,
    BRACKET_RING,
    CrossingCode,
    State,
    VirtualLinkDiagram,
    _bracket_from_counts,
    _check_cap,
    _splice_links,
    seifert_state,
    split_circles,
)
from .polyring import LaurentPoly, substitute
from .ribbon import (
    RibbonGraph,
    SpanningSubgraph,
    SubgraphStats,
    _band_links,
    _brpoly_from_counts,
    _subgraph_stats,
    components,
    from_diagram,
    stats,
)
from .walk import RollbackUnionFind, walk

__all__ = [
    "PerStateRow",
    "PerStateRows",
    "VerificationReport",
    "state_to_subgraph",
    "check_counting_identities",
    "state_subgraph_rows",
    "verify_identity",
    "random_diagram",
    "random_diagrams",
]


def state_to_subgraph(
    diagram: VirtualLinkDiagram, state: State, graph: RibbonGraph | None = None
) -> SpanningSubgraph:
    """The subgraph containing the crossings where `state` flips Seifert.

    Edge i is included iff state.letters[i] differs from the Seifert
    state's letter at crossing i. This is a bijection from the 2^n states
    onto the 2^n spanning subgraphs of from_diagram(diagram).
    """
    if graph is None:
        graph = from_diagram(diagram)
    reference = seifert_state(diagram)
    included = frozenset(
        i for i, (a, b) in enumerate(zip(state.letters, reference.letters)) if a != b
    )
    return SpanningSubgraph(graph, included)


def _terms_agree(
    alpha: int, beta: int, delta: int, e_total: int, e: int, s_twice: int, bc: int
) -> bool:
    """The three counting identities that make one state's terms agree."""
    return alpha == e_total - e + s_twice and beta == e - s_twice and delta == bc


def check_counting_identities(
    diagram: VirtualLinkDiagram, state: State, graph: RibbonGraph | None = None
) -> bool:
    """True iff the three per-state counting identities hold at `state`."""
    sub = state_to_subgraph(diagram, state, graph)
    st = stats(sub)
    delta = split_circles(diagram, state)
    return _terms_agree(state.alpha, state.beta, delta, sub.parent.e, st.e, st.s_twice, st.bc)


@dataclass(frozen=True)
class PerStateRow:
    """One state with its image subgraph, statistics, and term check."""

    state: State
    delta: int
    included: frozenset[int]
    stats: SubgraphStats
    term_ok: bool


def _state_order_masks(diagram: VirtualLinkDiagram, graph: RibbonGraph) -> tuple[int, int]:
    """The Seifert state and the negative edges as bits in state order.

    Crossing i, and so edge i, is bit n-1-i, as in State.from_index.
    """
    n = diagram.n
    seifert = sum(1 << (n - 1 - i) for i, s in enumerate(seifert_state(diagram).letters) if s == "B")
    negative = sum(1 << (n - 1 - i) for i, e in enumerate(graph.edges) if e.sign == -1)
    return seifert, negative


def _column(bound: int) -> array:
    """An empty array of the narrowest unsigned type that holds 0..bound."""
    for code in "BHL":
        if bound < 1 << (8 * array(code).itemsize):
            return array(code)
    return array("Q")


class PerStateRows(Sequence[PerStateRow]):
    """The 2^n per-state rows of one verification, in state-index order.

    Only three small integer columns are kept, the arc, port and vertex
    component counts of each state, plus the indices whose term check
    failed (`mismatches`); a PerStateRow is built from them when read.
    Indexing and iteration give rows, a slice gives a tuple of rows.
    """

    def __init__(
        self,
        diagram: VirtualLinkDiagram,
        graph: RibbonGraph,
        columns: tuple[array, array, array],
        mismatches: Sequence[int],
    ) -> None:
        self._n, self._graph, self._columns = diagram.n, graph, columns
        self._seifert, self._negative = _state_order_masks(diagram, graph)
        self._free_loops = diagram.free_loops
        self._free_discs = sum(1 for rot in graph.rotations if not rot)
        self.mismatches = tuple(mismatches)
        self._failed = frozenset(mismatches)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        """The row at an int index, or a tuple of the rows in a slice."""
        if isinstance(index, slice):
            return tuple(map(self._row, range(len(self))[index]))
        return self._row(range(len(self))[index])

    def __iter__(self) -> Iterator[PerStateRow]:
        return map(self._row, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PerStateRows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _row(self, index: int) -> PerStateRow:
        n, g = self._n, self._graph
        arcs, ports, vertices = (column[index] for column in self._columns)
        flips = index ^ self._seifert
        e_minus = (flips & self._negative).bit_count()
        bc = ports + self._free_discs
        st = _subgraph_stats(g.v, flips.bit_count(), vertices, bc, e_minus, self._negative.bit_count())
        included = frozenset(i for i in range(n) if flips >> (n - 1 - i) & 1)
        delta = arcs + self._free_loops
        return PerStateRow(State.from_index(n, index), delta, included, st, index not in self._failed)


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of the identity plus the per-state term comparison."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    equal: bool
    per_state: Sequence[PerStateRow]


def _fused_pass(
    diagram: VirtualLinkDiagram, graph: RibbonGraph
) -> tuple[LaurentPoly, LaurentPoly, PerStateRows]:
    """The bracket, the BR polynomial and the per-state rows in one walk.

    The walk runs over the crossings in state-index order. At crossing i
    it splices the diagram's arcs by the state's letter and includes edge
    i of the ribbon graph iff that letter differs from the Seifert
    state's. The bracket is summed from the arc counts alone and the BR
    polynomial from the subgraph counts alone, so the two sides stay
    independent; the term check compares them state by state.
    """
    n = diagram.n
    seifert_bits, negative = _state_order_masks(diagram, graph)
    splices = _splice_links(diagram)
    fixed, bands = _band_links(graph, 2 * n)
    # Letter bit b (0 = A) at crossing i includes edge i iff b differs from
    # the Seifert state's bit there.
    levels = []
    for i in range(n):
        seifert = seifert_bits >> (n - 1 - i) & 1
        levels.append((splices[i][0] + bands[i][seifert], splices[i][1] + bands[i][1 - seifert]))
    uf = RollbackUnionFind(2 * n, 4 * graph.e, graph.v)
    for x, y in fixed:
        uf.union(x, y)
    counts = uf.counts
    free_loops = diagram.free_loops
    free_discs = sum(1 for rot in graph.rotations if not rot)
    e_total, e_minus_total = graph.e, negative.bit_count()
    columns = (_column(2 * n), _column(4 * graph.e), _column(graph.v))
    arcs_col, ports_col, vertices_col = columns
    bracket_acc: dict[tuple[int, int], int] = {}
    br_acc: dict[tuple[int, int, int, int], int] = {}
    mismatches = []
    for index in walk(uf, levels, 0, 1 << n):
        arcs, ports, k = counts
        beta = index.bit_count()
        key = (beta, arcs)
        bracket_acc[key] = bracket_acc.get(key, 0) + 1
        flips = index ^ seifert_bits
        e = flips.bit_count()
        e_minus = (flips & negative).bit_count()
        key = (e, e_minus, k, ports)
        br_acc[key] = br_acc.get(key, 0) + 1
        if not _terms_agree(
            n - beta, beta, arcs + free_loops, e_total, e,
            2 * e_minus - e_minus_total, ports + free_discs,
        ):
            mismatches.append(index)
        arcs_col.append(arcs)
        ports_col.append(ports)
        vertices_col.append(k)
    rows = PerStateRows(diagram, graph, columns, mismatches)
    return _bracket_from_counts(diagram, bracket_acc), _brpoly_from_counts(graph, br_acc), rows


def state_subgraph_rows(
    diagram: VirtualLinkDiagram, graph: RibbonGraph | None = None
) -> PerStateRows:
    """All 2^n states in word order, each with its subgraph data.

    term_ok records whether the state's bracket monomial matches the
    transformed subgraph monomial, which is exactly the three counting
    identities.
    """
    if graph is None:
        graph = from_diagram(diagram)
    return _fused_pass(diagram, graph)[2]


def verify_identity(
    diagram: VirtualLinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> VerificationReport:
    """Check the identity on one diagram, exactly and term by term.

    lhs is the bracket state sum. rhs is A^n B^r d^(k-1) times the
    Bollobas-Riordan polynomial of the Seifert-circle graph under
    x = A*d/B, y = B*d/A, z = 1/d. equal is structural polynomial
    equality; per_state localizes any failure to single states. One
    walk computes both sides and the rows (see `_fused_pass`).
    """
    _check_cap(diagram.n, max_crossings)
    graph = from_diagram(diagram)
    lhs, br, rows = _fused_pass(diagram, graph)
    k = components(SpanningSubgraph(graph, frozenset(range(graph.e))))
    rank = graph.v - k
    nullity = graph.e - rank
    prefactor = BRACKET_RING.monomial(1, {"A": nullity, "B": rank, "d": k - 1})
    images = {
        "x": BRACKET_RING.monomial(1, {"A": 1, "d": 1, "B": -1}),
        "y": BRACKET_RING.monomial(1, {"B": 1, "d": 1, "A": -1}),
        "z": BRACKET_RING.monomial(1, {"d": -1}),
    }
    rhs = prefactor * substitute(br, images)
    return VerificationReport(lhs, rhs, lhs == rhs, rows)


def random_diagram(n_crossings: int, seed: int) -> VirtualLinkDiagram:
    """Deterministic pseudo-random valid code with n_crossings crossings.

    Each crossing has two outgoing ends (under at s2, over) and two
    incoming ends (under at s0, over); a random bijection between outgoing
    and incoming ends defines the 2n arcs, and a random bit per crossing
    places the incoming over-end at s1 or s3. Any such code is a valid
    virtual diagram, so no rejection sampling is needed.
    """
    if n_crossings < 1:
        raise ValueError("n_crossings must be at least 1")
    rng = random.Random(seed)
    n = n_crossings
    over_in = [3 if rng.getrandbits(1) else 1 for _ in range(n)]
    outgoing = [(ci, kind) for ci in range(n) for kind in (0, 1)]
    incoming = [(ci, kind) for ci in range(n) for kind in (0, 1)]
    rng.shuffle(incoming)
    slots = [[0, 0, 0, 0] for _ in range(n)]
    for arc, ((co, ko), (ci, ki)) in enumerate(zip(outgoing, incoming), start=1):
        slots[co][2 if ko == 0 else 4 - over_in[co]] = arc
        slots[ci][0 if ki == 0 else over_in[ci]] = arc
    return VirtualLinkDiagram(tuple(CrossingCode(tuple(s)) for s in slots))


def random_diagrams(count: int, max_crossings: int, seed: int) -> Iterator[VirtualLinkDiagram]:
    """Deterministic fuzz stream: crossing counts uniform in [1, max_crossings]."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_crossings)
        yield random_diagram(n, rng.getrandbits(64))
