"""The rollback-union-find walks against the per-item reference functions."""

from __future__ import annotations

import copy
import dataclasses
import pickle
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
from vlinkpoly import thistle
from vlinkpoly.diagram import _splice_links
from vlinkpoly.ribbon import _band_links
from vlinkpoly.cli import _mismatch_report
from vlinkpoly.thistle import (
    MISMATCH_LIST_LIMIT,
    PerStateRow,
    PerStateRows,
    VerificationReport,
    _column,
    _fused_counts,
    _fused_levels,
    _terms_agree,
)
from vlinkpoly.walk import RollbackUnionFind, walk, walk_prefixes


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


class TestLazyRows:
    """A row holds only term_ok until another field is read."""

    def test_a_row_read_only_for_term_ok_acts_as_a_full_row(self) -> None:
        d = random_diagram(6, 3)
        rows = verify_identity(d).per_state
        expected = reference_rows(d)
        same = (
            lambda row: row,
            hash,
            repr,
            dataclasses.replace,
            lambda row: dataclasses.replace(row, term_ok=not row.term_ok),
            pickle.dumps,
            copy.deepcopy,
        )
        for index in (0, 17, 63):
            full = rows[index]
            assert full.stats == expected[index].stats
            for read in same:
                lazy = rows[index]
                assert lazy.term_ok == full.term_ok
                assert "_source" in vars(lazy)
                assert read(lazy) == read(full)
                assert "_source" not in vars(lazy)
                assert lazy == expected[index] and hash(lazy) == hash(expected[index])

    def test_each_field_read_first_equals_the_reference(self) -> None:
        names = ("state", "delta", "included", "stats", "term_ok")
        for d in edge_shape_diagrams()[:24]:
            expected = reference_rows(d)
            rows = verify_identity(d).per_state
            forwards = list(range(len(rows)))
            for order in (forwards, forwards[::-1]):
                for name in names:
                    got = [getattr(rows[i], name) for i in order]
                    assert got == [getattr(expected[i], name) for i in order], (d, name)

    def test_no_failure_allocates_no_bits(self) -> None:
        rows = verify_identity(random_diagram(9, 1)).per_state
        assert rows.mismatches.bits is None and not rows.mismatches and rows.mismatches == ()


@pytest.fixture
def all_failing(monkeypatch: pytest.MonkeyPatch) -> VirtualLinkDiagram:
    """random_diagram(12, 0) with one negative edge bit flipped, so every
    state's 2s(F) is off by one and all 4096 states fail."""
    true_masks = thistle._state_order_masks
    monkeypatch.setattr(thistle, "_state_order_masks", lambda *a: (true_masks(*a)[0], true_masks(*a)[1] ^ 1))
    return random_diagram(12, 0)


class TestBoundedMismatches:
    def test_first_k_listed_and_the_count_exact(self, all_failing: VirtualLinkDiagram) -> None:
        report = verify_identity(all_failing)
        mismatches = report.per_state.mismatches
        assert len(mismatches) == 4096 and MISMATCH_LIST_LIMIT < 4096
        assert mismatches.listed == list(range(MISMATCH_LIST_LIMIT))
        # The indices past the listed ones come back from the bits.
        assert mismatches == list(range(4096)) == _fused_counts(all_failing, from_diagram(all_failing))[3]
        assert mismatches[MISMATCH_LIST_LIMIT] == MISMATCH_LIST_LIMIT and mismatches[-1] == 4095
        assert mismatches.bits == b"\xff" * (4096 // 8)
        assert not any(row.term_ok for row in report.per_state)
        assert not any(report.per_state[i].term_ok for i in range(-1, -4097, -1))

    def test_block_lists_k_states_then_the_count(self, all_failing: VirtualLinkDiagram) -> None:
        lines = _mismatch_report(verify_identity(all_failing))
        assert lines[0] == "MISMATCH" and len(lines) == 3 + MISMATCH_LIST_LIMIT + 1
        assert all(line.startswith("state ") for line in lines[3:-1])
        assert lines[3].startswith("state AAAAAAAAAAAA:")
        assert lines[-2].startswith(f"state {State.from_index(12, MISMATCH_LIST_LIMIT - 1).word}:")
        assert lines[-1] == f"4096 states differ; the first {MISMATCH_LIST_LIMIT} are listed"

    def test_block_with_k_failures_has_no_count_line(self) -> None:
        d = random_diagram(12, 0)
        true = verify_identity(d)
        for failing in (range(MISMATCH_LIST_LIMIT), range(MISMATCH_LIST_LIMIT + 1)):
            rows = PerStateRows(d, from_diagram(d), true.per_state._columns, failing)
            lines = _mismatch_report(VerificationReport(true.lhs, true.rhs, True, rows))
            states = [line for line in lines if line.startswith("state ")]
            assert len(states) == MISMATCH_LIST_LIMIT
            assert len(lines) == 3 + MISMATCH_LIST_LIMIT + (len(failing) > MISMATCH_LIST_LIMIT)


def plain_counts(d: VirtualLinkDiagram, graph) -> tuple:
    """_fused_counts's results from a plain walk over all 2^n states, one at a time."""
    n = d.n
    seifert_bits, negative = thistle._state_order_masks(d, graph)
    uf, levels = _fused_levels(d, graph, seifert_bits)
    free_discs = sum(1 for rot in graph.rotations if not rot)
    columns = (_column(2 * n), _column(4 * graph.e), _column(graph.v))
    bracket: dict = {}
    br: dict = {}
    mismatches = []
    for index in walk(uf, levels, 0, 1 << n):
        arcs, ports, k = uf.counts
        beta = index.bit_count()
        bracket[beta, arcs] = bracket.get((beta, arcs), 0) + 1
        flips = index ^ seifert_bits
        e, e_minus = flips.bit_count(), (flips & negative).bit_count()
        br[e, e_minus, k, ports] = br.get((e, e_minus, k, ports), 0) + 1
        if not _terms_agree(
            n - beta, beta, arcs + d.free_loops, graph.e, e,
            2 * e_minus - negative.bit_count(), ports + free_discs,
        ):
            mismatches.append(index)
        for column, count in zip(columns, uf.counts):
            column.append(count)
    return bracket, br, columns, mismatches


def split_points(n: int) -> list[int]:
    """The default split, a one-level suffix, and one block (low >= n)."""
    return sorted({max(n - 1, 0) // 2, min(n, 1), n, n + 2})


class TestPrefixMemo:
    """The memoized fused walk against a plain walk over the same levels."""

    def assert_memo_equals_plain(self, d: VirtualLinkDiagram, lows: list[int | None], tables=(None,)) -> None:
        graph = from_diagram(d)
        expected = plain_counts(d, graph)
        for low in lows:
            for max_tables in tables:
                got = _fused_counts(d, graph, low, max_tables)
                assert got == expected, (d, low, max_tables)
                assert [c.typecode for c in got[2]] == [c.typecode for c in expected[2]]

    def test_small_n_and_one_block(self) -> None:
        shapes = [parse_diagram("L 2")] + [random_diagram(n, seed) for n in (1, 2, 3) for seed in range(4)]
        for d in shapes:
            self.assert_memo_equals_plain(d, [None, *split_points(d.n)], (None, 0, 1))

    def test_free_loops_and_empty_rotation_vertices(self) -> None:
        shapes = [
            parse_diagram("X 1 1 2 2\nL 1"),
            VirtualLinkDiagram(random_diagram(3, 5).crossings, 2),
            # 300 free loops push the vertex column past one byte.
            VirtualLinkDiagram(random_diagram(7, 2).crossings, 300),
        ]
        assert _fused_counts(shapes[-1], from_diagram(shapes[-1]))[2][2].typecode == "H"
        for d in shapes:
            assert not all(from_diagram(d).rotations)
            self.assert_memo_equals_plain(d, [None, *split_points(d.n)], (None, 0))

    def test_fuzz_stream(self) -> None:
        for d in random_diagrams(300, 14, 1515):
            self.assert_memo_equals_plain(d, [None])

    def test_large_diagrams(self) -> None:
        for n in (16, 18):
            for seed in range(2):
                self.assert_memo_equals_plain(random_diagram(n, seed), [None])

    def test_a_smaller_memo_builds_more_tables(self) -> None:
        d = random_diagram(13, 4)
        graph = from_diagram(d)
        builds = []
        for max_tables in (0, 1, 3, 1 << 20):
            uf, levels = _fused_levels(d, graph, thistle._state_order_masks(d, graph)[0])
            built: list[tuple[bytes, ...]] = []
            for _ in walk_prefixes(uf, levels, 6, lambda m: built.append(m) or m, max_tables):
                pass
            builds.append(len(built))
        # With no table stored every prefix builds one; unbounded, prefixes share.
        assert builds[0] == 1 << 7
        assert builds[3] < builds[2] <= builds[1] <= builds[0]
        self.assert_memo_equals_plain(d, [None, 6], (0, 1, 3))

    def test_suffix_merges_match_the_plain_walk(self) -> None:
        for g in fuzzed_graphs()[:40]:
            fixed, choices = _band_links(g)
            levels = choices[::-1]
            uf = RollbackUnionFind(4 * g.e, g.v)
            for x, y in fixed:
                uf.union(x, y)
            start = list(uf.counts)
            plain = [tuple(uf.counts) for _ in walk(uf, levels, 0, 1 << g.e)]
            for low in range(g.e + 2):
                width = 1 << min(low, g.e)
                for prefix, merges in walk_prefixes(uf, levels, low, lambda m: m, 2):
                    before = tuple(uf.counts)
                    for s in range(width):
                        got = tuple(count - m[s] for count, m in zip(before, merges))
                        assert got == plain[prefix * width + s], (g, low, prefix, s)
                assert uf.counts == start

    @pytest.mark.parametrize("flip", ["suffix_bit", "prefix_bit", "all"])
    def test_forced_mismatches(self, monkeypatch: pytest.MonkeyPatch, flip: str) -> None:
        true_masks = thistle._state_order_masks
        for d in [random_diagram(n, seed) for n in (5, 9, 12) for seed in range(2)]:
            n = d.n
            wrong = {"suffix_bit": 1, "prefix_bit": 1 << (n - 1), "all": (1 << n) - 1}[flip]
            monkeypatch.setattr(thistle, "_state_order_masks", lambda *a: (true_masks(*a)[0], true_masks(*a)[1] ^ wrong))
            graph = from_diagram(d)
            seifert_bits, negative = thistle._state_order_masks(d, graph)
            # The identity itself holds at every state; only the patched
            # negative mask makes the pass's 2s(F) wrong.
            expected = []
            for index in range(1 << n):
                state = State.from_index(n, index)
                assert check_counting_identities(d, state, graph)
                flips = index ^ seifert_bits
                s_twice = 2 * (flips & negative).bit_count() - negative.bit_count()
                if s_twice != stats(state_to_subgraph(d, state, graph)).s_twice:
                    expected.append(index)
            assert expected
            self.assert_memo_equals_plain(d, [None, *split_points(n)], (None, 0))
            assert _fused_counts(d, graph)[3] == expected
            rows = verify_identity(d).per_state
            assert rows.mismatches == tuple(expected)
            assert [i for i, row in enumerate(rows) if not row.term_ok] == expected
            monkeypatch.undo()
