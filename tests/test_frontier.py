"""Frontier contraction against the walk, and metamorphic relations of the bracket.

The relations follow from the state-sum definition alone, so they are
checked on seeded random virtual codes as well as on the bundled corpus.
"""

from __future__ import annotations

import random

import pytest

from vlinkpoly import (
    BRACKET_RING,
    CrossingCode,
    VirtualLinkDiagram,
    bracket_partial,
    jones,
    kauffman_bracket,
    random_diagram,
    random_diagrams,
    substitute,
)
from vlinkpoly.diagram import _frontier_counts, _splice_links
from vlinkpoly.walk import RollbackUnionFind, walk

Code = list[tuple[int, int, int, int]]


def diagram(code: Code, free_loops: int = 0) -> VirtualLinkDiagram:
    return VirtualLinkDiagram(tuple(CrossingCode(c) for c in code), free_loops)


def code_of(d: VirtualLinkDiagram) -> Code:
    return [c.slots for c in d.crossings]


def walk_counts(d: VirtualLinkDiagram) -> dict[tuple[int, int], int]:
    """{(beta, arc components): states} over the full-range walk."""
    uf = RollbackUnionFind(2 * d.n)
    acc: dict[tuple[int, int], int] = {}
    for index in walk(uf, _splice_links(d), 0, 1 << d.n):
        key = (index.bit_count(), uf.counts[0])
        acc[key] = acc.get(key, 0) + 1
    return acc


def torus_code(m: int) -> Code:
    """Closure of the positive 2-braid sigma^m: the (2,m) torus knot or link."""
    return [(2 * (i % m) + 2, 2 * ((i + 1) % m) + 2, 2 * ((i + 1) % m) + 1, 2 * (i % m) + 1) for i in range(m)]


def add_kink(code: Code, kind: int, at: int) -> Code:
    """One Reidemeister I kink before crossing `at`'s incoming under-end.

    The four kinds cover both signs and both orders (under first or over
    first); the loop arc sits in two cyclically adjacent slots.
    """
    code = [list(c) for c in code]
    top = max(max(c) for c in code)
    loop, y = top + 1, top + 2
    arc = code[at][0]
    code[at][0] = y
    kinds = [(arc, loop, loop, y), (arc, y, loop, loop), (loop, arc, y, loop), (loop, loop, y, arc)]
    return [tuple(c) for c in code] + [kinds[kind]]


def add_bigon(code: Code, over: int, under: int) -> Code:
    """A Reidemeister II bigon: the arc entering crossing `over` at s0
    passes over the arc entering crossing `under` at s0, then back.

    Any two arcs of a virtual diagram can be brought together by virtual
    moves, so the move applies to every pair of distinct crossings.
    """
    code = [list(c) for c in code]
    top = max(max(c) for c in code)
    a, b = code[over][0], code[under][0]
    a1, a2, b1, b2 = top + 1, top + 2, top + 3, top + 4
    code[over][0], code[under][0] = a2, b2
    return [tuple(c) for c in code] + [(b, a1, b1, a), (b1, a1, b2, a2)]


def seeded_diagrams() -> list[VirtualLinkDiagram]:
    return list(random_diagrams(40, 9, 8080))


class TestFrontierAgainstWalk:
    def test_corpus(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        for name, d in corpus.items():
            assert _frontier_counts(d) == walk_counts(d), name

    def test_fuzz_stream(self) -> None:
        stream = [*random_diagrams(300, 14, 1913), *(random_diagram(n, s) for n in (15, 16) for s in range(3))]
        fallbacks = 0
        for i, d in enumerate(stream):
            counts = _frontier_counts(d)
            if counts is None:
                fallbacks += 1
                assert kauffman_bracket(d) == bracket_partial(d, 0, 1 << d.n), i
            else:
                assert counts == walk_counts(d), i
        # One diagram of this stream (index 20, n = 13) needs the walk.
        assert fallbacks == 1

    @pytest.mark.parametrize("m", range(1, 21))
    def test_torus_codes_and_kinked_variants(self, m: int) -> None:
        plain = diagram(torus_code(m))
        kinked = diagram(add_kink(torus_code(m), m % 4, m // 2))
        assert _frontier_counts(plain) == walk_counts(plain)
        assert _frontier_counts(kinked) == walk_counts(kinked)

    def test_too_many_live_matchings_falls_back_to_the_walk(self) -> None:
        # A fuzz diagram whose greedy frontier needs more than 2^3 matchings.
        d = random_diagram(6, 27)
        assert _frontier_counts(d) is None
        assert kauffman_bracket(d) == bracket_partial(d, 0, 2**6)


class TestMetamorphicRelations:
    def test_relabelling_arcs_and_reordering_crossings(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        rng = random.Random(5)
        for d in [*corpus.values(), *seeded_diagrams()]:
            code = code_of(d)
            arcs = sorted({a for c in code for a in c})
            rename = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 1), len(arcs))))
            moved = [tuple(rename[a] for a in c) for c in code]
            rng.shuffle(moved)
            assert kauffman_bracket(diagram(moved, d.free_loops)) == kauffman_bracket(d)

    def test_disjoint_union_multiplies_by_d(self) -> None:
        ds = seeded_diagrams()
        d_var = BRACKET_RING.variable("d")
        for d1, d2 in zip(ds[0::2], ds[1::2]):
            offset = max(max(c) for c in code_of(d1))
            shifted = [tuple(a + offset for a in c) for c in code_of(d2)]
            union = diagram(code_of(d1) + shifted, d1.free_loops + d2.free_loops)
            assert kauffman_bracket(union) == d_var * kauffman_bracket(d1) * kauffman_bracket(d2)

    def test_connected_sum_multiplies(self) -> None:
        # Swapping the heads of one arc of each summand merges the two curves
        # through them into one in every state, so delta = delta1 + delta2 - 1.
        ds = seeded_diagrams()
        for d1, d2 in zip(ds[0::2], ds[1::2]):
            offset = max(max(c) for c in code_of(d1))
            code1 = [list(c) for c in code_of(d1)]
            code2 = [[a + offset for a in c] for c in code_of(d2)]
            code1[-1][0], code2[0][0] = code2[0][0], code1[-1][0]
            summed = diagram([tuple(c) for c in code1 + code2], d1.free_loops + d2.free_loops)
            assert kauffman_bracket(summed) == kauffman_bracket(d1) * kauffman_bracket(d2)

    def test_mirroring_swaps_a_and_b(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        swap = {"A": BRACKET_RING.variable("B"), "B": BRACKET_RING.variable("A"), "d": BRACKET_RING.variable("d")}
        for d in [*corpus.values(), *seeded_diagrams()]:
            mirrored = diagram([(s0, s3, s2, s1) for s0, s1, s2, s3 in code_of(d)], d.free_loops)
            assert kauffman_bracket(mirrored) == substitute(kauffman_bracket(d), swap)

    @pytest.mark.parametrize("kind", range(4))
    def test_reidemeister_one_kink_keeps_jones(self, kind: int, corpus: dict[str, VirtualLinkDiagram]) -> None:
        rng = random.Random(kind)
        for d in [*corpus.values(), *seeded_diagrams()]:
            if not d.n:
                continue
            kinked = diagram(add_kink(code_of(d), kind, rng.randrange(d.n)), d.free_loops)
            assert jones(kinked) == jones(d)

    def test_reidemeister_two_bigon_keeps_jones(self, corpus: dict[str, VirtualLinkDiagram]) -> None:
        rng = random.Random(22)
        for d in [*corpus.values(), *seeded_diagrams()]:
            if d.n < 2:
                continue
            over, under = rng.sample(range(d.n), 2)
            moved = diagram(add_bigon(code_of(d), over, under), d.free_loops)
            assert jones(moved) == jones(d)
