"""The three workloads: seeded inputs, the timed operation, and its check.

A workload hands out rounds. A round is a fixed sequence of cases (one
operation each), built only from the seed and the round's index, so a run
always attempts whole rounds of the same operations. Rounds are generators:
each case is built just before its operation, outside the timed part. `run` is the timed
part: it starts from input text and ends with the canonical printed
result, as the CLI does. `check` is untimed and compares the result with
the reference arithmetic in oracle.py or with a property the method must
have, never with a stored copy of an earlier output.

The caller puts the checkout's `src` on sys.path before importing this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import vlinkpoly as vp

import gen
import oracle
from oracle import CheckError


@dataclass
class Case:
    kind: str
    texts: tuple[str, ...]
    items: int
    data: dict = field(default_factory=dict)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class JonesClassical:
    """parse_diagram -> jones -> print_poly on n-crossing classical diagrams.

    A round holds four n-crossing diagrams: the (2,n) torus link T (the
    closure of the 2-braid sigma^n, of random chirality), its mirror, the
    (2,n-1) torus link with one extra Reidemeister I kink, and the mirror
    of that. Every diagram gets fresh random arc labels and crossing order.
    """

    name = "jones_classical"

    def __init__(self, n: int = 15):
        self.n = n

    def round(self, seed: int, index: int) -> Iterator[Case]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        for kind, m, kinked in (("torus", self.n, False), ("kinked", self.n - 1, True)):
            code = gen.torus_code(m)
            expect = oracle.torus_knot_jones(m) if m % 2 else oracle.torus_link_jones(m)
            if rng.random() < 0.5:
                code, expect = gen.mirror(code), oracle.invert(expect)
            if kinked:
                code = gen.add_kink(code, rng)
            for suffix, c, e in (("", code, expect), ("_mirror", gen.mirror(code), oracle.invert(expect))):
                c = gen.relabel(c, rng)
                yield Case(kind + suffix, (gen.code_text(c),), 1 << len(c),
                           {"expect": e, "components": oracle.count_components(c)})

    def run(self, case: Case) -> str:
        return vp.print_poly(vp.jones(vp.parse_diagram(case.texts[0])))

    def check(self, case: Case, output: str) -> None:
        got = oracle.parse_printed(output, ("t",))
        c = case.data["components"]
        # V(1) = (-2)^(c-1) for every link; t = 1 means s = 1 with t = s^4.
        v1 = oracle.evaluate(got, (Fraction(1),), (4,))
        _require(v1 == (-2) ** (c - 1), f"{case.kind}: V(1) = {v1}, expected (-2)^{c - 1}")
        # Torus closed forms; a mirror is the form at 1/t; a kink changes nothing.
        _require(got == case.data["expect"], f"{case.kind}: Jones polynomial differs from the closed form")


class VerifyVirtual:
    """parse_diagram -> verify_identity -> term_ok scan on random n-crossing
    virtual codes, one per round."""

    name = "verify_virtual"

    def __init__(self, n: int = 13):
        self.n = n

    def round(self, seed: int, index: int) -> Iterator[Case]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        code = gen.random_virtual_code(self.n, rng)
        yield Case("verify", (gen.code_text(code),), 1 << self.n, {"components": oracle.count_components(code)})

    def run(self, case: Case):
        report = vp.verify_identity(vp.parse_diagram(case.texts[0]))
        verdict = "OK" if report.equal and all(row.term_ok for row in report.per_state) else "MISMATCH"
        return report, verdict

    def check(self, case: Case, output) -> None:
        report, verdict = output
        states = 1 << self.n
        _require(verdict == "OK", "verdict is not OK")
        _require(report.equal, "report.equal is false")
        _require(len(report.per_state) == states, f"{len(report.per_state)} state rows, expected {states}")
        _require(all(row.term_ok for row in report.per_state), "a state row fails term_ok")
        lhs_text = vp.print_poly(report.lhs)
        _require(lhs_text == vp.print_poly(report.rhs), "the two sides print differently")
        lhs = oracle.parse_printed(lhs_text, ("A", "B", "d"))
        # Every state contributes one monomial with coefficient 1.
        _require(sum(lhs.values()) == states, "bracket coefficients do not sum to 2^n")
        at = oracle.evaluate(lhs, (Fraction(1), Fraction(1), Fraction(-2)), (1, 1, 1))
        c = case.data["components"]
        _require(abs(at) == 2 ** (c - 1), f"|<L>(1,1,-2)| = {abs(at)}, expected 2^{c - 1}")


_JONES_IMAGES = ("t^(-1/4)", "t^(1/4)", "-t^(1/2) - t^(-1/2)")
_BR_IMAGES = ("A*B^(-1)*d", "A^(-1)*B*d", "d^(-1)")


class PolyKernel:
    """Ring parsing, `*` and `substitute` on seeded polynomials; one round
    is one operation of each of four kinds (sizes in the README)."""

    name = "poly_kernel"

    def __init__(self, mul_terms: int = 800, jones_terms: int = 700, br_terms: int = 13000, hom_degree: int = 5):
        self.mul_terms = mul_terms
        self.jones_terms = jones_terms
        self.br_terms = br_terms
        self.hom_degree = hom_degree

    def round(self, seed: int, index: int) -> Iterator[Case]:
        rng = random.Random(f"{self.name}:{seed}:{index}")

        def point(*pool_sizes: int) -> tuple[Fraction, ...]:
            return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(2, k)) for k in pool_sizes)

        abd, ones = ("A", "B", "d"), (1, 1, 1)
        mul_in = [gen.random_terms(rng, self.mul_terms, [(-6, 6), (-6, 6), (0, 8)]) for _ in range(2)]
        yield Case("mul", tuple(gen.poly_text(t, abd, ones, rng) for t in mul_in), 1,
                   {"terms": mul_in, "point": point(3, 3, 3)})
        jones_in = gen.random_terms(rng, self.jones_terms, [(-12, 12), (-12, 12), (20, 40)])
        yield Case("jones_sub", (gen.poly_text(jones_in, abd, ones, rng),) + _JONES_IMAGES, 1,
                   {"terms": jones_in, "point": point(3)})
        # x and y exponents in half units; equal parity lets the fractional
        # exponents cancel under x = A*d/B, y = B*d/A.
        br_in = gen.random_terms(rng, self.br_terms, [(-30, 30), (-30, 30), (-12, 12)], parity=True)
        yield Case("br_sub", (gen.poly_text(br_in, ("x", "y", "z"), (2, 2, 1), rng),) + _BR_IMAGES, 1,
                   {"terms": br_in, "point": point(3, 3, 3)})
        k = self.hom_degree
        hom_in = [
            {(i, j): rng.choice([c for c in range(-9, 10) if c]) for i in range(k + 1) for j in range(k + 1)}
            for _ in range(2)
        ]
        # Four corner terms per image keep the size of every power fixed.
        hom_images = [
            {(a, b): rng.choice((-3, -2, -1, 1, 2, 3)) for a in (-2, 2) for b in (-2, 2)} for _ in range(2)
        ]
        yield Case("hom_sub",
                   tuple(gen.poly_text(t, ("u", "w"), (1, 1), rng) for t in hom_in)
                   + tuple(gen.poly_text(t, ("A", "B"), (1, 1), rng) for t in hom_images), 1,
                   {"terms": hom_in, "images": hom_images, "point": point(3, 3)})

    def _hom_rings(self) -> tuple:
        return vp.Ring(("u", "w")), vp.Ring(("A", "B"))

    def run(self, case: Case) -> str:
        t = case.texts
        if case.kind == "mul":
            ring = vp.BRACKET_RING
            return vp.print_poly(ring.parse(t[0]) * ring.parse(t[1]))
        if case.kind == "jones_sub":
            images = dict(zip(("A", "B", "d"), (vp.JONES_RING.parse(s) for s in t[1:])))
            return vp.print_poly(vp.substitute(vp.BRACKET_RING.parse(t[0]), images))
        if case.kind == "br_sub":
            images = dict(zip(("x", "y", "z"), (vp.BRACKET_RING.parse(s) for s in t[1:])))
            return vp.print_poly(vp.substitute(vp.BR_RING.parse(t[0]), images))
        source, target = self._hom_rings()
        images = {"u": target.parse(t[2]), "w": target.parse(t[3])}
        return vp.print_poly(vp.substitute(source.parse(t[0]) * source.parse(t[1]), images))

    def check(self, case: Case, output: str) -> None:
        # Generated inputs are kept in quantum units, so they are evaluated
        # at the value of each variable's quantum root (grains all 1).
        d, pt = case.data, case.data["point"]
        if case.kind == "mul":
            got = oracle.parse_printed(output, ("A", "B", "d"))
            p, q = (oracle.evaluate(terms, pt, (1, 1, 1)) for terms in d["terms"])
            _require(oracle.evaluate(got, pt, (1, 1, 1)) == p * q, "mul: p*q differs from p(x)*q(x)")
        elif case.kind == "jones_sub":
            got = oracle.parse_printed(output, ("t",))
            (s,) = pt
            # t = s^4, so A = t^(-1/4) = 1/s, B = s, d = -s^2 - s^-2.
            want = oracle.evaluate(d["terms"], (1 / s, s, -s * s - 1 / (s * s)), (1, 1, 1))
            _require(oracle.evaluate(got, (s,), (4,)) == want, "jones_sub: value differs at t = s^4")
        elif case.kind == "br_sub":
            got = oracle.parse_printed(output, ("A", "B", "d"))
            a, b, c = pt
            # A = a^2, B = b^2, d = c^2, so x^(1/2) = a*c/b, y^(1/2) = b*c/a, z = 1/c^2.
            want = oracle.evaluate(d["terms"], (a * c / b, b * c / a, 1 / (c * c)), (1, 1, 1))
            _require(oracle.evaluate(got, (a, b, c), (2, 2, 2)) == want, "br_sub: value differs")
        else:
            got = oracle.parse_printed(output, ("A", "B"))
            u, w = (oracle.evaluate(img, pt, (1, 1)) for img in d["images"])
            p, q = (oracle.evaluate(terms, (u, w), (1, 1)) for terms in d["terms"])
            _require(oracle.evaluate(got, pt, (1, 1)) == p * q, "hom_sub: value differs")
            # The homomorphism property, through the program itself.
            source, target = self._hom_rings()
            images = {"u": target.parse(case.texts[2]), "w": target.parse(case.texts[3])}
            p, q = (vp.substitute(source.parse(s), images) for s in case.texts[:2])
            _require(vp.print_poly(p * q) == output, "hom_sub: substitute(p*q) != substitute(p)*substitute(q)")


WORKLOADS = {w.name: w for w in (JonesClassical(), VerifyVirtual(), PolyKernel())}
