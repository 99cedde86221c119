"""Diagram codes: validation, direction inference, state sums, Jones."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlinkpoly import (
    BRACKET_RING,
    JONES_RING,
    CrossingCode,
    DiagramError,
    EnumerationCapError,
    Ring,
    State,
    VirtualLinkDiagram,
    bracket_partial,
    enumerate_states,
    jones,
    kauffman_bracket,
    parse_diagram,
    print_diagram,
    seifert_state,
    sign,
    split_circles,
    substitute,
    writhe,
)
from vlinkpoly.thistle import random_diagram

from conftest import load

# (alpha, beta, delta) per state word for the bundled 3-crossing virtual knot.
MIXED3_STATE_TABLE = {
    "AAA": (3, 0, 2),
    "AAB": (2, 1, 1),
    "ABA": (2, 1, 1),
    "ABB": (1, 2, 2),
    "BAA": (2, 1, 1),
    "BAB": (1, 2, 1),
    "BBA": (1, 2, 1),
    "BBB": (0, 3, 2),
}

GOLDEN_BRACKETS = {
    "paper_knot": "B^3*d + 2*A*B^2 + A*B^2*d + 3*A^2*B + A^3*d",
    "unknot": "1",
    "trefoil": "B^3*d + 3*A*B^2 + 3*A^2*B*d + A^3*d^2",
    "figure8": "B^4*d^2 + 4*A*B^3*d + 5*A^2*B^2 + A^2*B^2*d^2 + 4*A^3*B*d + A^4*d^2",
    "hopf": "B^2*d + 2*A*B + A^2*d",
    "virtual_trefoil": "B^2*d + 2*A*B + A^2",
}

GOLDEN_JONES = {
    "paper_knot": "t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2)",
    "unknot": "1",
    "trefoil": "-t^(-4) + t^(-3) + t^(-1)",
    "figure8": "t^(-2) - t^(-1) + 1 - t + t^2",
    "hopf": "-t^(-5/2) - t^(-1/2)",
    "virtual_trefoil": "t + t^(3/2) - t^(5/2)",
}

GOLDEN_WRITHES = {
    "paper_knot": -1,
    "unknot": 0,
    "trefoil": -3,
    "figure8": 0,
    "hopf": -2,
    "virtual_trefoil": 2,
}


class TestParsingAndValidation:
    def test_three_crossing_knot_parses(self, paper_knot: VirtualLinkDiagram) -> None:
        assert paper_knot.n == 3
        assert paper_knot.free_loops == 0
        assert paper_knot.crossings[0].slots == (6, 4, 1, 3)

    def test_comments_blanks_and_loop_accumulation(self) -> None:
        d = parse_diagram("# two free loops, then one more\nL 2\n\nL 1  # inline\n")
        assert d.n == 0 and d.free_loops == 3

    def test_print_parse_round_trip(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for d in corpus.values():
            assert parse_diagram(print_diagram(d)) == d

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("X 1 2 3", "line 1"),
            ("X 1 2 3 4 5", "line 1"),
            ("X 1 2 3 q", "line 1"),
            ("X 0 1 1 2", "line 1"),
            ("L -1", "line 1"),
            ("L 1 2", "line 1"),
            ("X 1 4 2 5\nY 1", "line 2"),
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, text: str, fragment: str) -> None:
        with pytest.raises(DiagramError, match=fragment):
            parse_diagram(text)

    def test_empty_diagram_rejected(self) -> None:
        with pytest.raises(DiagramError):
            parse_diagram("")
        with pytest.raises(DiagramError):
            parse_diagram("# only comments\nL 0")

    def test_arc_census_enforced(self) -> None:
        with pytest.raises(DiagramError, match="exactly twice"):
            parse_diagram("X 1 2 3 4")
        with pytest.raises(DiagramError, match="exactly twice"):
            parse_diagram("X 1 1 1 2")

    def test_direction_conflict_rejected(self) -> None:
        # Arc 1 sits at the incoming under-slot of both crossings.
        with pytest.raises(DiagramError, match="forced both ways"):
            parse_diagram("X 1 2 2 3\nX 1 3 4 4")

    def test_crossing_code_shape_enforced(self) -> None:
        with pytest.raises(DiagramError):
            CrossingCode((1, 2, 3))
        with pytest.raises(DiagramError):
            CrossingCode((1, 2, 3, 0))

    def test_negative_free_loops_rejected(self) -> None:
        with pytest.raises(DiagramError):
            VirtualLinkDiagram((), -1)


class TestDirectionInference:
    def test_signs_and_writhe(self, paper_knot: VirtualLinkDiagram) -> None:
        assert paper_knot.signs == (1, -1, -1)
        assert [sign(paper_knot, i) for i in range(3)] == [1, -1, -1]
        assert writhe(paper_knot) == -1

    def test_corpus_writhes(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, w in GOLDEN_WRITHES.items():
            assert writhe(corpus[name]) == w, name

    def test_over_only_component_is_seeded_deterministically(self) -> None:
        # Arcs 3 and 4 never pass under, so their direction is a free choice.
        text = "X 1 3 2 4\nX 2 4 1 3"
        d1 = parse_diagram(text)
        d2 = parse_diagram(text)
        assert d1.signs == d2.signs
        assert kauffman_bracket(d1) == kauffman_bracket(d2)

    def test_reversing_every_strand_preserves_signs(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        # Rotating each code by two slots reverses all arrows; signs,
        # Seifert state, and the bracket are reversal invariants.
        for d in corpus.values():
            if d.n == 0:
                continue
            flipped = VirtualLinkDiagram(
                tuple(CrossingCode((c.slots[2], c.slots[3], c.slots[0], c.slots[1])) for c in d.crossings),
                d.free_loops,
            )
            assert flipped.signs == d.signs
            assert seifert_state(flipped) == seifert_state(d)
            assert kauffman_bracket(flipped) == kauffman_bracket(d)


class TestStates:
    def test_state_word_order(self) -> None:
        words = [s.word for s in enumerate_states(load("hopf"))]
        assert words == ["AA", "AB", "BA", "BB"]
        assert State.from_index(3, 1).word == "AAB"
        assert State.from_word("BAB").alpha == 1

    def test_state_letters_validated(self) -> None:
        with pytest.raises(ValueError):
            State(("A", "C"))

    def test_split_circle_table(self, paper_knot: VirtualLinkDiagram) -> None:
        for state in enumerate_states(paper_knot):
            alpha, beta, delta = MIXED3_STATE_TABLE[state.word]
            assert (state.alpha, state.beta) == (alpha, beta)
            assert split_circles(paper_knot, state) == delta

    def test_state_length_checked(self, paper_knot: VirtualLinkDiagram) -> None:
        with pytest.raises(DiagramError):
            split_circles(paper_knot, State.from_word("AA"))

    def test_seifert_state_word(self, paper_knot: VirtualLinkDiagram) -> None:
        assert seifert_state(paper_knot).word == "ABB"

    def test_free_loops_add_circles(self) -> None:
        d = parse_diagram("L 3")
        assert split_circles(d, State(())) == 3
        assert kauffman_bracket(d) == BRACKET_RING.parse("d^2")

    def test_disconnected_code_reaches_two_circles_per_crossing(self) -> None:
        # Two standalone curls: one state yields four circles from two
        # crossings, so n + 1 bounds delta only on connected codes.
        d = parse_diagram("X 2 1 1 2\nX 4 4 3 3")
        counts = {s.word: split_circles(d, s) for s in enumerate_states(d)}
        assert counts["BA"] == 4
        assert max(counts.values()) == 2 * d.n


class TestBracketAndJones:
    def test_golden_brackets(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, text in GOLDEN_BRACKETS.items():
            assert str(kauffman_bracket(corpus[name])) == text, name

    def test_golden_jones(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, text in GOLDEN_JONES.items():
            assert str(jones(corpus[name])) == text, name

    def test_single_kinks_normalize_to_trivial_jones(self) -> None:
        plus = parse_diagram("X 1 1 2 2")
        minus = parse_diagram("X 1 2 2 1")
        assert writhe(plus) == 1 and writhe(minus) == -1
        assert str(kauffman_bracket(plus)) == "B + A*d"
        assert str(kauffman_bracket(minus)) == "B*d + A"
        assert str(jones(plus)) == "1"
        assert str(jones(minus)) == "1"

    def test_bracket_partial_partition_merges_exactly(self) -> None:
        d = random_diagram(5, 424242)
        full = kauffman_bracket(d)
        assert bracket_partial(d, 0, 7) + bracket_partial(d, 7, 19) + bracket_partial(d, 19, 32) == full
        assert bracket_partial(d, 11, 11) == BRACKET_RING.zero()

    def test_enumeration_cap(self, paper_knot: VirtualLinkDiagram) -> None:
        with pytest.raises(EnumerationCapError, match="cap"):
            kauffman_bracket(paper_knot, max_crossings=2)
        with pytest.raises(EnumerationCapError):
            jones(paper_knot, max_crossings=2)
        assert kauffman_bracket(paper_knot, max_crossings=3)

    def test_corpus_state_sum_invariants(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        scalar = Ring(("q",))
        ones = {name: scalar.one() for name in ("A", "B", "d")}
        for name, d in corpus.items():
            states = list(enumerate_states(d))
            assert len(states) == 1 << d.n
            for s in states:
                assert s.alpha + s.beta == d.n
                # Corpus diagrams are connected, so at most n + 1 circles.
                assert 1 <= split_circles(d, s) <= d.n + 1 + d.free_loops
            assert substitute(kauffman_bracket(d), ones) == scalar.constant(1 << d.n), name


class TestJonesFreeLoops:
    """jones multiplies free loops back in as one binomial row."""

    LOOP = JONES_RING.parse("-t^(1/2) - t^(-1/2)")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 64, 301])
    def test_loops_alone_are_the_closed_form(self, m: int) -> None:
        assert jones(parse_diagram(f"L {m}")) == self.LOOP ** (m - 1)

    def test_loops_beside_crossings_multiply_by_d(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        diagrams = list(corpus.values()) + [random_diagram(n, seed) for n in (1, 4, 7) for seed in range(2)]
        for d in filter(lambda d: d.crossings, diagrams):
            plain = jones(VirtualLinkDiagram(d.crossings))
            for loops in (1, 2, 5):
                looped = VirtualLinkDiagram(d.crossings, d.free_loops + loops)
                assert jones(looped) == plain * self.LOOP ** (d.free_loops + loops), (d, loops)

    def test_loops_match_substituting_the_bracket(self) -> None:
        d = VirtualLinkDiagram(random_diagram(5, 2).crossings, 3)
        images = {
            "A": JONES_RING.parse("t^(-1/4)"),
            "B": JONES_RING.parse("t^(1/4)"),
            "d": self.LOOP,
        }
        w = writhe(d)
        prefactor = JONES_RING.monomial(-1 if w % 2 else 1, {"t": Fraction(3 * w, 4)})
        assert jones(d) == prefactor * substitute(kauffman_bracket(d), images)

    def test_free_loops_past_the_cap_raise(self) -> None:
        with pytest.raises(EnumerationCapError):
            jones(parse_diagram("L 99999999999999999999"))
        with pytest.raises(EnumerationCapError):
            jones(parse_diagram("L 5"), max_crossings=2)
        assert jones(parse_diagram("L 4"), max_crossings=2) == self.LOOP ** 3


class TestRandomDiagramProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_state_sum_shape(self, n: int, seed: int) -> None:
        d = random_diagram(n, seed)
        assert d.n == n
        for s in enumerate_states(d):
            assert s.alpha + s.beta == n
            # Random codes may be disconnected: up to two circles per crossing.
            assert 1 <= split_circles(d, s) <= 2 * n
        scalar = Ring(("q",))
        ones = {name: scalar.one() for name in ("A", "B", "d")}
        assert substitute(kauffman_bracket(d), ones) == scalar.constant(1 << n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 63))
    def test_partial_split_point_is_irrelevant(self, n: int, seed: int, cut: int) -> None:
        d = random_diagram(n, seed)
        cut = cut % (1 << n)
        assert bracket_partial(d, 0, cut) + bracket_partial(d, cut, 1 << n) == kauffman_bracket(d)
