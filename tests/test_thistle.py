"""The bracket / ribbon-polynomial identity, term by term and fuzzed."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlinkpoly import (
    BRACKET_RING,
    EnumerationCapError,
    VirtualLinkDiagram,
    check_counting_identities,
    enumerate_states,
    from_diagram,
    jones,
    kauffman_bracket,
    random_diagram,
    random_diagrams,
    seifert_state,
    state_subgraph_rows,
    state_to_subgraph,
    verify_identity,
)

from conftest import MOVE_PAIRS, load

# (k, r, n, bc, s) per state word for the bundled 3-crossing virtual knot's
# Seifert-circle graph, under the state-to-subgraph bijection.
MIXED3_SUBGRAPH_TABLE = {
    "AAA": (1, 1, 1, 2, Fraction(1)),
    "AAB": (1, 1, 0, 1, Fraction(0)),
    "ABA": (1, 1, 0, 1, Fraction(0)),
    "ABB": (2, 0, 0, 2, Fraction(-1)),
    "BAA": (1, 1, 2, 1, Fraction(1)),
    "BAB": (1, 1, 1, 1, Fraction(0)),
    "BBA": (1, 1, 1, 1, Fraction(0)),
    "BBB": (2, 0, 1, 2, Fraction(-1)),
}


class TestStateToSubgraph:
    def test_full_bijection_on_the_three_crossing_knot(self, paper_knot: VirtualLinkDiagram) -> None:
        # Seifert state ABB maps to the empty subgraph; flips mark edges.
        expected = {
            "AAA": {1, 2},
            "AAB": {1},
            "ABA": {2},
            "ABB": set(),
            "BAA": {0, 1, 2},
            "BAB": {0, 1},
            "BBA": {0, 2},
            "BBB": {0},
        }
        graph = from_diagram(paper_knot)
        images = {}
        for state in enumerate_states(paper_knot):
            sub = state_to_subgraph(paper_knot, state, graph)
            assert set(sub.included) == expected[state.word]
            images[state.word] = sub.included
        assert len(set(images.values())) == len(images)

    def test_seifert_state_maps_to_empty_subgraph(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for d in corpus.values():
            assert state_to_subgraph(d, seifert_state(d)).included == frozenset()

    def test_counting_identities_hold_on_the_corpus(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, d in corpus.items():
            graph = from_diagram(d)
            for state in enumerate_states(d):
                assert check_counting_identities(d, state, graph), (name, state.word)

    def test_subgraph_statistics_table(self, paper_knot: VirtualLinkDiagram) -> None:
        for row in state_subgraph_rows(paper_knot):
            st_ = row.stats
            assert (st_.k, st_.r, st_.n, st_.bc, st_.s) == MIXED3_SUBGRAPH_TABLE[row.state.word]
            assert row.term_ok


class TestVerifyIdentity:
    def test_three_crossing_knot(self, paper_knot: VirtualLinkDiagram) -> None:
        report = verify_identity(paper_knot)
        assert report.equal
        assert report.lhs == kauffman_bracket(paper_knot)
        assert report.lhs == report.rhs
        assert len(report.per_state) == 8
        assert all(row.term_ok for row in report.per_state)
        graph = from_diagram(paper_knot)
        assert (graph.v, graph.e) == (2, 3)

    def test_zero_crossing_unknot(self) -> None:
        report = verify_identity(load("unknot"))
        assert report.equal
        assert report.lhs == BRACKET_RING.one()
        assert report.rhs == BRACKET_RING.one()

    def test_whole_corpus(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, d in corpus.items():
            report = verify_identity(d)
            assert report.equal, name
            assert all(row.term_ok for row in report.per_state), name

    def test_per_state_rows_rebuild_both_sides(self, paper_knot: VirtualLinkDiagram) -> None:
        # Each state's term is A^(e-e(F)+2s) B^(e(F)-2s) d^(bc-1); their sum
        # must be the whole polynomial, not merely equal coefficientwise.
        report = verify_identity(paper_knot)
        e_total = from_diagram(paper_knot).e
        total = BRACKET_RING.zero()
        for row in report.per_state:
            st_ = row.stats
            total = total + BRACKET_RING.monomial(
                1,
                {"A": e_total - st_.e + st_.s_twice, "B": st_.e - st_.s_twice, "d": st_.bc - 1},
            )
        assert total == report.rhs == report.lhs

    def test_enumeration_cap(self, paper_knot: VirtualLinkDiagram) -> None:
        with pytest.raises(EnumerationCapError):
            verify_identity(paper_knot, max_crossings=2)


class TestMoveInvariance:
    @pytest.mark.parametrize("base, variant", MOVE_PAIRS)
    def test_jones_agrees_while_brackets_differ(self, base: str, variant: str) -> None:
        d_base, d_variant = load(base), load(variant)
        assert jones(d_base) == jones(d_variant)
        assert kauffman_bracket(d_base) != kauffman_bracket(d_variant)


class TestRandomDiagrams:
    def test_deterministic(self) -> None:
        assert random_diagram(4, 17) == random_diagram(4, 17)
        assert random_diagram(4, 17) != random_diagram(4, 18)
        first = list(random_diagrams(6, 5, 99))
        second = list(random_diagrams(6, 5, 99))
        assert first == second
        assert all(1 <= d.n <= 5 for d in first)

    def test_requested_crossing_count(self) -> None:
        for n in (1, 3, 8):
            assert random_diagram(n, 0).n == n
        with pytest.raises(ValueError):
            random_diagram(0, 0)

    def test_fuzz_smoke(self) -> None:
        for d in random_diagrams(60, 8, 20260817):
            report = verify_identity(d)
            assert report.equal
            assert all(row.term_ok for row in report.per_state)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**48 - 1))
    def test_identity_on_arbitrary_codes(self, n: int, seed: int) -> None:
        d = random_diagram(n, seed)
        report = verify_identity(d)
        assert report.equal
        graph = from_diagram(d)
        for state in enumerate_states(d):
            assert check_counting_identities(d, state, graph)


class TestStateSubgraphRows:
    def test_enumeration_cap(self, paper_knot: VirtualLinkDiagram) -> None:
        with pytest.raises(EnumerationCapError):
            state_subgraph_rows(paper_knot, max_crossings=2)

    def test_default_cap_gives_every_row(self, paper_knot: VirtualLinkDiagram) -> None:
        rows = state_subgraph_rows(paper_knot)
        assert len(rows) == 8
        assert [row.state.word for row in rows] == sorted(MIXED3_SUBGRAPH_TABLE)
