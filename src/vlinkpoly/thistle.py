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
from collections import Counter
from collections.abc import Iterable, Sequence
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
from .walk import RollbackUnionFind, walk_prefixes

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
    """One state with its image subgraph, statistics, and term check.

    A row read from PerStateRows holds only term_ok and a reference back
    to its rows until another attribute is read; that read fills state,
    delta, included and stats at once. ==, hash, repr and
    dataclasses.replace read those fields, and pickling or copying a row
    fills it first, so all of them see a full row.
    """

    state: State
    delta: int
    included: frozenset[int]
    stats: SubgraphStats
    term_ok: bool

    def __getattr__(self, name: str):
        # Only called when normal lookup fails: a field not yet filled.
        source = self.__dict__.pop("_source", None)
        if source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        source[0]._fill(self.__dict__, source[1])
        return getattr(self, name)

    def __getstate__(self) -> dict:
        # Pickle and copy a full row, never the rows it came from.
        self.state
        return self.__dict__


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


# The number of failing state indices kept as ints; the rest are bits.
MISMATCH_LIST_LIMIT = 1000


class Mismatches(Sequence[int]):
    """The failing state indices of a verification, in ascending order.

    The first MISMATCH_LIST_LIMIT are kept in `listed`; len() is the exact
    count. A bit per state (`bits`, allocated at the first failure) gives
    PerStateRows its term_ok values and yields the indices past the
    listed ones, so an all-failing run holds 2^n/8 bytes rather than 2^n
    ints. It compares equal to any list or tuple of the same indices.
    """

    def __init__(self, states: int, indices: Iterable[int] = ()) -> None:
        self.states = states
        self.listed: list[int] = []
        self.bits: bytearray | None = None
        self._count = 0
        self.extend(indices)

    def extend(self, indices: Iterable[int]) -> None:
        """Add failing indices in ascending order, each above those added before."""
        indices = list(indices)
        if not indices:
            return
        if self.bits is None:
            self.bits = bytearray((self.states + 7) >> 3)
        bits = self.bits
        for index in indices:
            bits[index >> 3] |= 1 << (index & 7)
        self.listed.extend(indices[: MISMATCH_LIST_LIMIT - len(self.listed)])
        self._count += len(indices)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        yield from self.listed
        if self._count > len(self.listed):
            bits = self.bits
            assert bits is not None
            yield from (i for i in range(self.listed[-1] + 1, self.states) if bits[i >> 3] >> (i & 7) & 1)

    def __getitem__(self, index):
        if isinstance(index, int) and 0 <= index < len(self.listed):
            return self.listed[index]
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Mismatches, list, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented


class PerStateRows(Sequence[PerStateRow]):
    """The 2^n per-state rows of one verification, in state-index order.

    Only three small integer columns are kept, the arc, port and vertex
    component counts of each state, plus the failing indices
    (`mismatches`, a Mismatches; a plain sequence of indices is accepted
    too). Indexing and iteration give rows, a slice gives a tuple of rows.

    A row is made holding only term_ok, read from the mismatch bits, so a
    term_ok scan costs one small object per state. The first read of any
    other field fills the row (`_fill`) from the columns and from two
    tables per half of the state index, the high half being crossings
    0..ceil(n/2)-1: each half's letters and its set of flipped crossings,
    one entry per value of the half's bits, built on the first fill. A
    row's letters are then one tuple concatenation and its included edges
    one frozenset union over the halves of index ^ seifert. Rows with the
    same (e, k, ports, e_minus) share one frozen SubgraphStats.
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
        if not isinstance(mismatches, Mismatches):
            mismatches = Mismatches(len(columns[0]), sorted(set(mismatches)))
        self.mismatches = mismatches
        self._bits = mismatches.bits
        self._halves: tuple | None = None
        self._stats: dict[tuple[int, int, int, int], SubgraphStats] = {}

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

    def _half_tables(self) -> tuple:
        """(low half's bit count, high letters, high flipped, low letters, low flipped)."""
        n = self._n
        low = n // 2
        tables: list = [low]
        for first, bits in ((0, n - low), (n - low, low)):
            tables.append([State.from_index(bits, m).letters for m in range(1 << bits)])
            tables.append(
                [frozenset(first + j for j in range(bits) if m >> (bits - 1 - j) & 1) for m in range(1 << bits)]
            )
        self._halves = tuple(tables)
        return self._halves

    def _row(self, index: int) -> PerStateRow:
        row = object.__new__(PerStateRow)
        fields = row.__dict__
        bits = self._bits
        fields["term_ok"] = bits is None or not bits[index >> 3] >> (index & 7) & 1
        fields["_source"] = (self, index)
        return row

    def _fill(self, fields: dict, index: int) -> None:
        """Write state, delta, included and stats of row `index` into `fields`."""
        low, high_letters, high_flipped, low_letters, low_flipped = self._halves or self._half_tables()
        low_mask = (1 << low) - 1
        arcs_column, ports_column, vertices_column = self._columns
        arcs, ports, k = arcs_column[index], ports_column[index], vertices_column[index]
        flips = index ^ self._seifert
        e, e_minus = flips.bit_count(), (flips & self._negative).bit_count()
        # A SubgraphStats is frozen and fixed by its counts, so one is shared.
        key = (e, k, ports, e_minus)
        st = self._stats.get(key)
        if st is None:
            st = self._stats[key] = _subgraph_stats(
                self._graph.v, e, k, ports + self._free_discs, e_minus, self._negative.bit_count()
            )
        # The letters come from State.from_index, so the frozen State needs
        # no __init__; it is filled in directly, which is cheaper.
        state = object.__new__(State)
        state.__dict__["letters"] = high_letters[index >> low] + low_letters[index & low_mask]
        fields.update(
            state=state,
            delta=arcs + self._free_loops,
            included=high_flipped[flips >> low] | low_flipped[flips & low_mask],
            stats=st,
        )


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of the identity plus the per-state term comparison."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    equal: bool
    per_state: Sequence[PerStateRow]


def _fused_levels(
    diagram: VirtualLinkDiagram, graph: RibbonGraph, seifert_bits: int
) -> tuple[RollbackUnionFind, list]:
    """The union-find of arcs, ports and vertices, and the levels of the walk.

    Letter bit b (0 = A) at crossing i splices the arcs by b and includes
    edge i iff b differs from the Seifert state's bit there.
    """
    n = diagram.n
    splices = _splice_links(diagram)
    fixed, bands = _band_links(graph, 2 * n)
    levels = []
    for i in range(n):
        seifert = seifert_bits >> (n - 1 - i) & 1
        levels.append((splices[i][0] + bands[i][seifert], splices[i][1] + bands[i][1 - seifert]))
    uf = RollbackUnionFind(2 * n, 4 * graph.e, graph.v)
    for x, y in fixed:
        uf.union(x, y)
    return uf, levels


def _fused_counts(
    diagram: VirtualLinkDiagram,
    graph: RibbonGraph,
    low: int | None = None,
    max_tables: int | None = None,
) -> tuple[dict, dict, tuple[array, array, array], Mismatches]:
    """The histograms, the three byte columns and the Mismatches of the fused walk.

    The state index splits into the high n-low bits, walked one prefix at
    a time, and the low bits, whose suffix tables `walk_prefixes`
    memoizes; by default low = (n-1)//2 and at most 2^ceil(n/2) tables
    are stored. A table holds each suffix's arc, port and vertex merges
    and the suffixes' share of the (beta, arcs) and (e, e_minus, k, ports)
    histograms. beta, e and e_minus of a state add over the two parts of
    its index, so each histogram key is packed into one int in mixed
    radix, and a state's key is its prefix's packed key plus its suffix's.
    The term check of a state depends only on beta - e + 2 e_minus and
    arcs - ports, which also add over the parts, so a table keeps one
    suffix per distinct share of those two sums and each prefix checks
    only those; if one fails, every state of the prefix is checked.
    """
    n = diagram.n
    if low is None:
        low = max(n - 1, 0) // 2
    if max_tables is None:
        max_tables = 1 << (n + 1) // 2
    low = min(low, n)
    seifert_bits, negative = _state_order_masks(diagram, graph)
    uf, levels = _fused_levels(diagram, graph, seifert_bits)
    suffixes = range(1 << low)
    seifert_low, negative_low = seifert_bits & suffixes[-1], negative & suffixes[-1]
    seifert_high, negative_high = seifert_bits >> low, negative >> low
    suffix_beta = [s.bit_count() for s in suffixes]
    suffix_e = [(s ^ seifert_low).bit_count() for s in suffixes]
    suffix_e_minus = [((s ^ seifert_low) & negative_low).bit_count() for s in suffixes]
    # Mixed radices of the packed keys: arcs <= 2n, e_minus <= n, k <= v, ports <= 4e.
    arcs_radix, e_minus_radix, k_radix, ports_radix = 2 * n + 1, n + 1, graph.v + 1, 4 * graph.e + 1
    suffix_bracket = [b * arcs_radix for b in suffix_beta]
    suffix_br = [
        (e * e_minus_radix + m) * k_radix * ports_radix for e, m in zip(suffix_e, suffix_e_minus)
    ]
    suffix_x = [b - e + 2 * m for b, e, m in zip(suffix_beta, suffix_e, suffix_e_minus)]

    # Codes are signed and below (n+1)^2 k_radix ports_radix; counts are at most 2^low.
    code_type = "i" if (n + 1) ** 2 * k_radix * ports_radix < 1 << 31 else "q"
    count_type = _column(1 << low).typecode

    def build(merges: tuple[bytes, ...]) -> tuple:
        arcs_m, ports_m, vertices_m = merges
        bracket = Counter(map(int.__sub__, suffix_bracket, arcs_m))
        br = Counter(
            code - k * ports_radix - p for code, k, p in zip(suffix_br, vertices_m, ports_m)
        )
        shares = dict(zip(zip(suffix_x, map(int.__sub__, ports_m, arcs_m)), suffixes))
        return (
            merges,
            array(code_type, bracket), array(count_type, bracket.values()),
            array(code_type, br), array(count_type, br.values()),
            tuple(shares.values()),
        )

    counts = uf.counts
    free_loops = diagram.free_loops
    free_discs = sum(1 for rot in graph.rotations if not rot)
    e_total, e_minus_total = graph.e, negative.bit_count()

    def term_ok(prefix_counts: tuple, merges: tuple[bytes, ...], s: int) -> bool:
        beta, e, e_minus, arcs, ports = prefix_counts
        beta += suffix_beta[s]
        return _terms_agree(
            n - beta, beta, arcs - merges[0][s] + free_loops, e_total, e + suffix_e[s],
            2 * (e_minus + suffix_e_minus[s]) - e_minus_total, ports - merges[1][s] + free_discs,
        )

    columns = (_column(2 * n), _column(4 * graph.e), _column(graph.v))
    bracket_acc: dict[int, int] = {}
    br_acc: dict[int, int] = {}
    mismatches = Mismatches(1 << n)
    for prefix, (merges, bracket_codes, bracket_counts, br_codes, br_counts, checked) in walk_prefixes(
        uf, levels, low, build, max_tables
    ):
        arcs, ports, k = counts
        beta = prefix.bit_count()
        flips = prefix ^ seifert_high
        e = flips.bit_count()
        e_minus = (flips & negative_high).bit_count()
        base = beta * arcs_radix + arcs
        for code, count in zip(bracket_codes, bracket_counts):
            bracket_acc[base + code] = bracket_acc.get(base + code, 0) + count
        base = ((e * e_minus_radix + e_minus) * k_radix + k) * ports_radix + ports
        for code, count in zip(br_codes, br_counts):
            br_acc[base + code] = br_acc.get(base + code, 0) + count
        prefix_counts = (beta, e, e_minus, arcs, ports)
        if not all(term_ok(prefix_counts, merges, s) for s in checked):
            mismatches.extend(
                prefix << low | s for s in suffixes if not term_ok(prefix_counts, merges, s)
            )
        for column, count, merged in zip(columns, counts, merges):
            column.extend(map(count.__sub__, merged))
    bracket = {divmod(code, arcs_radix): count for code, count in bracket_acc.items()}
    br = {}
    for code, count in br_acc.items():
        code, ports = divmod(code, ports_radix)
        code, k = divmod(code, k_radix)
        br[(*divmod(code, e_minus_radix), k, ports)] = count
    return bracket, br, columns, mismatches


def _fused_pass(
    diagram: VirtualLinkDiagram, graph: RibbonGraph
) -> tuple[LaurentPoly, LaurentPoly, PerStateRows]:
    """The bracket, the BR polynomial and the per-state rows in one walk.

    The walk runs over the crossings in state-index order. At crossing i
    it splices the diagram's arcs by the state's letter and includes edge
    i of the ribbon graph iff that letter differs from the Seifert
    state's. The bracket is summed from the arc counts alone and the BR
    polynomial from the subgraph counts alone, so the two sides stay
    independent; the term check compares them state by state. Every state
    is counted and checked, but the last levels of the walk are memoized
    by the partition they see (`_fused_counts`).
    """
    bracket_acc, br_acc, columns, mismatches = _fused_counts(diagram, graph)
    rows = PerStateRows(diagram, graph, columns, mismatches)
    return _bracket_from_counts(diagram, bracket_acc), _brpoly_from_counts(graph, br_acc), rows


def state_subgraph_rows(
    diagram: VirtualLinkDiagram,
    graph: RibbonGraph | None = None,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> PerStateRows:
    """All 2^n states in word order, each with its subgraph data.

    term_ok records whether the state's bracket monomial matches the
    transformed subgraph monomial, which is exactly the three counting
    identities. Past max_crossings it raises EnumerationCapError.
    """
    _check_cap(diagram.n, max_crossings)
    if graph is None:
        graph = from_diagram(diagram, max_crossings)
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
    graph = from_diagram(diagram, max_crossings)
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
