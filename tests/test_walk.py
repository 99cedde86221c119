"""The rollback-union-find walks against the per-item reference functions."""

from __future__ import annotations

import dataclasses
import random

import pytest

from vlinkpoly import (
    BR_RING,
    BRACKET_RING,
    SpanningSubgraph,
    State,
    VirtualLinkDiagram,
    bollobas_riordan,
    bracket_partial,
    brpoly_partial,
    check_counting_identities,
    from_diagram,
    kauffman_bracket,
    parse_diagram,
    random_diagram,
    random_diagrams,
    random_ribbon_graph,
    split_circles,
    state_to_subgraph,
    stats,
    verify_identity,
)
from vlinkpoly.diagram import _splice_links
from vlinkpoly.ribbon import _band_links
from vlinkpoly.thistle import PerStateRow, PerStateRows
from vlinkpoly.walk import RollbackUnionFind, walk


def fuzzed_diagrams() -> list[VirtualLinkDiagram]:
    return list(random_diagrams(12, 9, 31337))


def fuzzed_graphs() -> list:
    rng = random.Random(2718)
    return [random_ribbon_graph(rng.randint(0, 7), rng.getrandbits(32)) for _ in range(80)]


def partition(size: int, rng: random.Random) -> list[int]:
    """Cut points of [0, size): unaligned, with empty and single-item parts."""
    cuts = sorted(rng.randint(0, size) for _ in range(5))
    if size:
        k = rng.randrange(size)
        cuts += [k, k, k + 1]
    return [0] + sorted(cuts) + [size]


class TestRollbackUnionFind:
    def test_rollback_restores_every_field(self) -> None:
        rng = random.Random(4)
        uf = RollbackUnionFind(6, 5)
        snapshots = []
        for _ in range(8):
            snapshots.append((len(uf.log), list(uf.parent), list(uf.rank), list(uf.counts)))
            for _ in range(2):
                part = rng.randrange(2)
                lo, hi = (0, 6) if part == 0 else (6, 11)
                uf.union(rng.randrange(lo, hi), rng.randrange(lo, hi))
        for mark, parent, rank, counts in reversed(snapshots):
            uf.rollback(mark)
            assert (uf.parent, uf.rank, uf.counts) == (parent, rank, counts)

    def test_counts_are_kept_per_part(self) -> None:
        uf = RollbackUnionFind(3, 2)
        uf.union(0, 1)
        uf.union(1, 0)
        uf.union(3, 4)
        assert uf.counts == [2, 1]
        uf.rollback(0)
        assert uf.counts == [3, 2]

    def test_walk_yields_the_range_and_restores_the_structure(self) -> None:
        uf = RollbackUnionFind(4)
        levels = [(((0, 1),), ((2, 3),)), ((), ((1, 2),)), (((0, 3),), ())]
        before = (list(uf.parent), list(uf.counts))
        assert list(walk(uf, levels, 3, 7)) == [3, 4, 5, 6]
        assert list(walk(uf, levels, 5, 5)) == []
        assert (uf.parent, uf.counts) == before
        with pytest.raises(ValueError):
            list(walk(uf, levels, 0, 9))
        with pytest.raises(ValueError):
            list(walk(uf, levels, -1, 2))


class TestDiagramWalk:
    def test_arc_counts_match_split_circles_state_by_state(
        self, corpus: dict[str, VirtualLinkDiagram]
    ) -> None:
        for d in list(corpus.values()) + fuzzed_diagrams():
            uf = RollbackUnionFind(2 * d.n)
            for index in walk(uf, _splice_links(d), 0, 1 << d.n):
                state = State.from_index(d.n, index)
                assert uf.counts[0] + d.free_loops == split_circles(d, state), (d, state.word)

    def test_partials_merge_exactly_over_any_partition(
        self, corpus: dict[str, VirtualLinkDiagram]
    ) -> None:
        rng = random.Random(99)
        for d in list(corpus.values()) + fuzzed_diagrams():
            cuts = partition(1 << d.n, rng)
            parts = [bracket_partial(d, a, b) for a, b in zip(cuts, cuts[1:])]
            assert sum(parts, BRACKET_RING.zero()) == kauffman_bracket(d)

    def test_single_state_partial_is_that_state_monomial(self) -> None:
        for d in fuzzed_diagrams()[:4]:
            for index in range(0, 1 << d.n, 37):
                s = State.from_index(d.n, index)
                term = BRACKET_RING.monomial(
                    1, {"A": s.alpha, "B": s.beta, "d": split_circles(d, s) - 1}
                )
                assert bracket_partial(d, index, index + 1) == term


class TestRibbonWalk:
    def test_sample_has_isolated_vertices_loops_and_untwisted_edges(self) -> None:
        graphs = fuzzed_graphs()
        assert any(not rot for g in graphs for rot in g.rotations)
        assert any(g.vertex_of(e.a) == g.vertex_of(e.b) for g in graphs for e in g.edges)
        assert any(not e.twisted for g in graphs for e in g.edges)

    def test_port_and_vertex_counts_match_stats_subgraph_by_subgraph(self) -> None:
        for g in fuzzed_graphs():
            fixed, choices = _band_links(g)
            uf = RollbackUnionFind(4 * g.e, g.v)
            for x, y in fixed:
                uf.union(x, y)
            free_discs = sum(1 for rot in g.rotations if not rot)
            for mask in walk(uf, choices[::-1], 0, 1 << g.e):
                sub = SpanningSubgraph(g, frozenset(i for i in range(g.e) if mask >> i & 1))
                st = stats(sub)
                assert (uf.counts[1], uf.counts[0] + free_discs) == (st.k, st.bc), (g, mask)

    def test_partials_merge_exactly_over_any_partition(self) -> None:
        rng = random.Random(7)
        for g in fuzzed_graphs()[:30]:
            cuts = partition(1 << g.e, rng)
            parts = [brpoly_partial(g, a, b) for a, b in zip(cuts, cuts[1:])]
            assert sum(parts, BR_RING.zero()) == bollobas_riordan(g)


def reference_rows(d: VirtualLinkDiagram) -> tuple[PerStateRow, ...]:
    graph = from_diagram(d)
    rows = []
    for index in range(1 << d.n):
        state = State.from_index(d.n, index)
        sub = state_to_subgraph(d, state, graph)
        rows.append(
            PerStateRow(
                state,
                split_circles(d, state),
                sub.included,
                stats(sub),
                check_counting_identities(d, state, graph),
            )
        )
    return tuple(rows)


class TestPerStateRows:
    def test_rows_equal_the_reference_rows_in_order(
        self, corpus: dict[str, VirtualLinkDiagram]
    ) -> None:
        for d in list(corpus.values()) + fuzzed_diagrams()[:6]:
            rows = verify_identity(d).per_state
            expected = reference_rows(d)
            assert len(rows) == len(expected)
            assert tuple(rows) == expected
            assert rows == expected
            assert rows.mismatches == ()

    def test_sequence_protocol(self, paper_knot: VirtualLinkDiagram) -> None:
        rows = verify_identity(paper_knot).per_state
        expected = reference_rows(paper_knot)
        assert rows[-1] == expected[-1] and rows[2] == expected[2]
        assert rows[:3] + (rows[3],) + rows[4:] == expected
        assert rows[1::3] == expected[1::3]
        with pytest.raises(IndexError):
            rows[8]
        with pytest.raises(IndexError):
            rows[-9]

    def test_listed_mismatches_read_as_failed_rows(self, paper_knot: VirtualLinkDiagram) -> None:
        rows = verify_identity(paper_knot).per_state
        flagged = PerStateRows(paper_knot, from_diagram(paper_knot), rows._columns, [2, 5])
        assert [row.term_ok for row in flagged] == [i not in (2, 5) for i in range(8)]
        assert flagged.mismatches == (2, 5)
        assert [row.state for row in flagged] == [row.state for row in rows]


def edge_shape_diagrams() -> list[VirtualLinkDiagram]:
    """n = 0, uneven index halves, empty-rotation vertices, and a fuzz stream."""
    shapes = [parse_diagram("L 2"), parse_diagram("X 1 1 2 2\nL 1")]
    shapes += [random_diagram(n, seed) for n in (1, 2, 3) for seed in range(4)]
    shapes.append(VirtualLinkDiagram(random_diagram(3, 5).crossings, 2))
    return shapes + list(random_diagrams(40, 12, 4242))


class TestRowReads:
    def test_sample_has_the_edge_shapes(self) -> None:
        shapes = edge_shape_diagrams()
        assert {d.n for d in shapes} >= {0, 1, 2, 3, 12}
        assert any(d.n and not all(from_diagram(d).rotations) for d in shapes)

    def test_rows_equal_the_reference_read_in_any_order(self) -> None:
        for d in edge_shape_diagrams():
            expected = reference_rows(d)
            size = len(expected)
            rows = verify_identity(d).per_state
            assert [rows[i] for i in reversed(range(size))] == list(reversed(expected)), d
            assert [rows[i - size] for i in range(size)] == list(expected), d
            assert tuple(rows) == expected, d

    def test_shared_stats_do_not_depend_on_read_order(self) -> None:
        for d in edge_shape_diagrams()[:24]:
            columns = verify_identity(d).per_state._columns
            graph = from_diagram(d)
            forwards = list(PerStateRows(d, graph, columns, []))
            rows = PerStateRows(d, graph, columns, [])
            backwards = [rows[i] for i in reversed(range(len(rows)))][::-1]
            assert forwards == backwards
            assert [rows[i] for i in range(len(rows))] == backwards
            # Equal statistics are one shared object.
            assert len({id(row.stats) for row in backwards}) == len({row.stats for row in backwards})


class TestRowContract:
    """What callers that build or corrupt rows rely on."""

    def test_replace_changes_term_ok_only(self) -> None:
        rows = verify_identity(random_diagram(5, 11)).per_state
        bad = dataclasses.replace(rows[3], term_ok=False)
        assert isinstance(bad, PerStateRow) and rows[3].term_ok and not bad.term_ok
        assert bad != rows[3]
        assert dataclasses.replace(bad, term_ok=True) == rows[3]
        for field in ("state", "delta", "included", "stats"):
            assert getattr(bad, field) == getattr(rows[3], field)
        spliced = rows[:3] + (bad,) + rows[4:]
        assert isinstance(spliced, tuple) and len(spliced) == len(rows)
        assert all(isinstance(row, PerStateRow) for row in spliced)
        assert [row.term_ok for row in spliced] == [i != 3 for i in range(len(rows))]

    def test_listed_mismatches_read_false_at_exactly_those_indices(self) -> None:
        d = random_diagram(5, 11)
        rows = PerStateRows(d, from_diagram(d), verify_identity(d).per_state._columns, [2, 5])
        assert [row.term_ok for row in rows] == [i not in (2, 5) for i in range(32)]
        assert [rows[i].term_ok for i in (-30, -27, 2, 5)] == [False] * 4
        assert rows.mismatches == (2, 5)
