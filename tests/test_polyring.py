"""Exact Laurent-polynomial kernel: rings, arithmetic, text form, substitution."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlinkpoly import (
    BRACKET_RING,
    JONES_RING,
    LaurentPoly,
    PolyParseError,
    Ring,
    SubstitutionError,
    jones,
    print_poly,
    substitute,
)
from vlinkpoly import polyring
from vlinkpoly.polyring import _PACK_MIN_PAIRS, _dict_mul, _packed_mul, _tuple_mul

from test_frontier import add_kink, diagram, torus_code

R2 = Ring(("u", "w"))
RH = Ring(("x", "y"), (2, 2))
R1 = Ring(("A",))

# Small random polynomials over R2; quantum units are plain exponents here.
units2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
nonneg_units2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
coeffs = st.integers(-9, 9)
polys = st.lists(st.tuples(units2, coeffs), max_size=6).map(R2.from_terms)
nonneg_polys = st.lists(st.tuples(nonneg_units2, coeffs), max_size=5).map(R2.from_terms)

TARGET = Ring(("A", "B"))
target_polys = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coeffs), max_size=4
).map(TARGET.from_terms)
# Unit monomials: the only images safe under arbitrary integer exponents.
unit_monomials = st.tuples(
    st.sampled_from((1, -1)), st.integers(-3, 3), st.integers(-3, 3)
).map(lambda t: TARGET.from_terms([((t[1], t[2]), t[0])]))


class TestRingValidation:
    def test_granularity_must_be_1_2_or_4(self) -> None:
        with pytest.raises(ValueError):
            Ring(("t",), (3,))

    def test_duplicate_names_rejected(self) -> None:
        with pytest.raises(ValueError):
            Ring(("a", "a"))

    def test_bad_name_rejected(self) -> None:
        with pytest.raises(ValueError):
            Ring(("2x",))

    def test_empty_variable_list_rejected(self) -> None:
        with pytest.raises(ValueError):
            Ring(())

    def test_granularity_length_must_match(self) -> None:
        with pytest.raises(ValueError):
            Ring(("a", "b"), (1,))

    def test_units_conversion(self) -> None:
        assert JONES_RING.units("t", Fraction(1, 4)) == 1
        assert JONES_RING.units("t", -2) == -8
        with pytest.raises(ValueError):
            JONES_RING.units("t", Fraction(1, 3))

    def test_unknown_variable(self) -> None:
        with pytest.raises(ValueError):
            BRACKET_RING.index("q")


class TestArithmetic:
    def test_difference_of_squares(self) -> None:
        a = BRACKET_RING.variable("A")
        b = BRACKET_RING.variable("B")
        assert (a + b) * (a - b) == a**2 - b**2

    def test_inverse_monomial_cancels(self) -> None:
        d = BRACKET_RING.variable("d")
        d_inv = BRACKET_RING.monomial(1, {"d": -1})
        assert d * d_inv == BRACKET_RING.one()

    def test_identity_substitution_monomials_multiply_to_d_squared(self) -> None:
        x_img = BRACKET_RING.monomial(1, {"A": 1, "d": 1, "B": -1})
        y_img = BRACKET_RING.monomial(1, {"B": 1, "d": 1, "A": -1})
        assert x_img * y_img == BRACKET_RING.monomial(1, {"d": 2})

    def test_power_zero_is_one(self) -> None:
        p = R2.parse("u - w")
        assert p**0 == R2.one()
        assert p**3 == p * p * p

    def test_negative_power_rejected(self) -> None:
        with pytest.raises(ValueError):
            R2.variable("u") ** -1

    def test_int_coercion(self) -> None:
        u = R2.variable("u")
        assert 2 * u + 1 == R2.parse("2*u + 1")
        assert 1 - u == R2.parse("1 - u")

    def test_cancellation_reaches_structural_zero(self) -> None:
        p = R2.parse("3*u*w - w^2")
        z = p - p
        assert z == R2.zero()
        assert not z
        assert str(z) == "0"

    def test_ring_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError):
            BRACKET_RING.one() + JONES_RING.one()

    def test_coefficient_lookup(self) -> None:
        p = BRACKET_RING.parse("3*A^2*B + A^3*d")
        assert p.coefficient({"A": 2, "B": 1}) == 3
        assert p.coefficient({"A": 1}) == 0

    def test_items_yield_fraction_exponents_in_order(self) -> None:
        p = JONES_RING.parse("t^(1/2) - t^(-2)")
        assert list(p.items()) == [((Fraction(-2),), -1), ((Fraction(1, 2),), 1)]


class TestTextForm:
    def test_canonical_order_is_ascending(self) -> None:
        assert str(BRACKET_RING.parse("A^3*d + 3*A^2*B")) == "3*A^2*B + A^3*d"
        assert str(R2.parse("-u + 2*w")) == "2*w - u"

    def test_quarter_exponent_round_trip(self) -> None:
        text = "t^(-2) - t^(-1) - t^(-1/2) + 1 + t^(1/2)"
        assert str(JONES_RING.parse(text)) == text

    def test_unparenthesized_negative_exponent_accepted(self) -> None:
        assert JONES_RING.parse("t^-2") == JONES_RING.parse("t^(-2)")

    def test_whitespace_is_free(self) -> None:
        assert BRACKET_RING.parse("A^3*d+3*A^2*B") == BRACKET_RING.parse(" A^3 * d + 3 * A^2 * B ")

    def test_zero_prints_and_parses(self) -> None:
        assert str(R2.zero()) == "0"
        assert R2.parse("0") == R2.zero()

    def test_leading_sign(self) -> None:
        assert R2.parse("-u") == -R2.variable("u")
        assert str(-R2.variable("u")) == "-u"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "u +",
            "2u",
            "q + 1",
            "u^(1/3)",
            "u^(1/0)",
            "u^^2",
            "u + * w",
            "(u + w)",
        ],
    )
    def test_malformed_text_rejected(self, text: str) -> None:
        with pytest.raises(PolyParseError):
            R2.parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u + $w", "unexpected character '$' at position 4"),
            ("u\t+\n w ! ", "unexpected character '!' at position 7"),
            ("u\xa0+\u2003w#", "unexpected character '#' at position 5"),
            ("u\x85+\x00", "unexpected character '\\x00' at position 3"),
            ("u ^ ( -1 / 2 ) + w\n\n,", "unexpected character ',' at position 20"),
            ("2 u", "expected '+' or '-' between terms at position 2, got 'u'"),
            (" \t\n", "empty polynomial text"),
        ],
    )
    def test_parse_error_messages_and_positions(self, text: str, message: str) -> None:
        # Every kind of whitespace is skipped; positions count from the
        # start of the text, whitespace included.
        with pytest.raises(PolyParseError) as exc:
            R2.parse(text)
        assert str(exc.value) == message

    def test_half_exponent_needs_granularity(self) -> None:
        assert RH.parse("x^(1/2)") == RH.monomial(1, {"x": Fraction(1, 2)})
        with pytest.raises(PolyParseError):
            R2.parse("u^(1/2)")


class TestSubstitute:
    def test_constant_evaluation(self) -> None:
        p = BRACKET_RING.parse("A^2*B + 2*d")
        ones = {name: R1.one() for name in ("A", "B", "d")}
        assert substitute(p, ones) == R1.constant(3)

    def test_fractional_exponents_must_cancel_per_term(self) -> None:
        p = RH.monomial(1, {"x": Fraction(1, 2), "y": Fraction(1, 2)})
        a = TARGET.variable("A")
        b = TARGET.variable("B")
        assert substitute(p, {"x": a, "y": a}) == TARGET.variable("A")
        with pytest.raises(SubstitutionError):
            substitute(p, {"x": a, "y": b})

    def test_negative_unit_image_needs_integer_exponent(self) -> None:
        p = RH.monomial(1, {"x": Fraction(1, 2)})
        neg = TARGET.from_terms([((1, 0), -1)])
        with pytest.raises(SubstitutionError):
            substitute(p, {"x": neg, "y": TARGET.one()})
        q = RH.monomial(1, {"x": 3})
        assert substitute(q, {"x": neg, "y": TARGET.one()}) == TARGET.from_terms([((3, 0), -1)])

    def test_scaled_image_needs_nonnegative_integer_exponent(self) -> None:
        p = R2.monomial(1, {"u": -1})
        two_a = TARGET.from_terms([((1, 0), 2)])
        with pytest.raises(SubstitutionError):
            substitute(p, {"u": two_a, "w": TARGET.one()})
        q = R2.monomial(1, {"u": 2})
        assert substitute(q, {"u": two_a, "w": TARGET.one()}) == TARGET.from_terms([((2, 0), 4)])

    def test_sum_image_needs_nonnegative_integer_exponent(self) -> None:
        p = R2.monomial(1, {"u": -1})
        with pytest.raises(SubstitutionError):
            substitute(p, {"u": TARGET.parse("A + B"), "w": TARGET.one()})

    def test_zero_image(self) -> None:
        p = R2.parse("u + w")
        assert substitute(p, {"u": TARGET.zero(), "w": TARGET.variable("A")}) == TARGET.variable("A")
        assert substitute(R2.constant(5), {"u": TARGET.zero(), "w": TARGET.one()}) == TARGET.constant(5)
        with pytest.raises(SubstitutionError):
            substitute(R2.monomial(1, {"u": -1}), {"u": TARGET.zero(), "w": TARGET.one()})

    def test_image_set_must_match_variables(self) -> None:
        p = R2.variable("u")
        with pytest.raises(SubstitutionError):
            substitute(p, {"u": TARGET.one()})
        with pytest.raises(SubstitutionError):
            substitute(p, {"u": TARGET.one(), "w": TARGET.one(), "q": TARGET.one()})

    def test_images_must_share_a_target_ring(self) -> None:
        with pytest.raises(SubstitutionError):
            substitute(R2.parse("u + w"), {"u": TARGET.one(), "w": R1.one()})

    def test_quarter_substitution_into_half_ring(self) -> None:
        # A -> t^(-1/4), B -> t^(1/4): A*B cancels, A^2 lands on t^(-1/2).
        p = BRACKET_RING.parse("A*B + A^2")
        images = {
            "A": JONES_RING.monomial(1, {"t": Fraction(-1, 4)}),
            "B": JONES_RING.monomial(1, {"t": Fraction(1, 4)}),
            "d": JONES_RING.one(),
        }
        assert substitute(p, images) == JONES_RING.parse("1 + t^(-1/2)")


# Monomial images: a coefficient in +-1, +-2, +-3 and target units.
SOURCE = Ring(("x", "y", "z"), (2, 4, 1))
HALF_TARGET = Ring(("A", "B"), (1, 2))
image_coeffs = st.sampled_from((1, 1, -1, 2, -2, 3, -3))
monomial_images = st.tuples(image_coeffs, st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda t: HALF_TARGET.from_terms([((t[1], t[2]), t[0])])
)
source_terms = st.lists(
    st.tuples(st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-3, 3)), coeffs), max_size=6
)


def general_loop(p: LaurentPoly, images: dict[str, LaurentPoly]) -> LaurentPoly:
    """substitute by its factor-by-factor loop: p in a ring with one more
    variable, which p does not use and whose image has two terms."""
    ring = Ring(p.ring.variables + ("q",), p.ring.granularity + (1,))
    wide = ring.from_terms((units + (0,), c) for units, c in p.terms)
    target = next(iter(images.values())).ring
    return substitute(wide, {**images, "q": target.one() + target.variable(target.variables[0])})


def outcome(f, *args) -> LaurentPoly | str:
    try:
        return f(*args)
    except SubstitutionError as exc:
        return f"SubstitutionError: {exc}"


class TestMonomialSubstitute:
    """The one-term-per-term path of substitute, against powers and the general loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_products_of_image_powers(self, data: st.DataObject) -> None:
        # Each image is c * m**4 for a root monomial m, so a source exponent
        # u/g maps to c^(u/g) * m^(4u/g): fractional exponents only where
        # c = 1, negative ones only where c = +-1.
        roots, images, allowed = {}, {}, {}
        for name, g in zip(SOURCE.variables, SOURCE.granularity):
            c = data.draw(image_coeffs)
            root_units = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            roots[name] = HALF_TARGET.from_terms([(root_units, 1)])
            images[name] = c * roots[name] ** 4
            step, low = (1, -8) if c == 1 else (g, -8 if c == -1 else 0)
            allowed[name] = st.integers(low // step, 8 // step).map(lambda k, step=step: k * step)
        terms = data.draw(st.lists(st.tuples(st.tuples(*allowed.values()), coeffs), max_size=6))
        expected = HALF_TARGET.zero()
        for units, coeff in terms:
            term = HALF_TARGET.constant(coeff)
            for name, g, u in zip(SOURCE.variables, SOURCE.granularity, units):
                ((root_units, _),) = roots[name].terms
                if u % g == 0:  # an integer exponent: a power of the image itself
                    k = u // g
                    image = images[name]
                    if k < 0:  # only +-1 images: the inverse keeps the coefficient
                        ((image_units, c),) = image.terms
                        image = HALF_TARGET.from_terms([(tuple(-x for x in image_units), c)])
                    term = term * image ** abs(k)
                else:  # a fractional exponent on a coefficient-1 image: a power of its root
                    inverse = HALF_TARGET.from_terms([(tuple(-x for x in root_units), 1)])
                    term = term * (roots[name] if u > 0 else inverse) ** (abs(u) * 4 // g)
            expected = expected + term
        assert substitute(SOURCE.from_terms(terms), images) == expected

    @settings(max_examples=300, deadline=None)
    @given(source_terms, monomial_images, monomial_images, monomial_images)
    def test_matches_the_general_loop_in_value_and_error(self, terms, x, y, z) -> None:
        p = SOURCE.from_terms(terms)
        images = {"x": x, "y": y, "z": z}
        assert outcome(substitute, p, images) == outcome(general_loop, p, images)
        # Most inputs hold a term that cannot map; the terms that can, alone.
        alone = [outcome(general_loop, SOURCE.from_terms([t]), images) for t in terms]
        p = SOURCE.from_terms(t for t, out in zip(terms, alone) if isinstance(out, LaurentPoly))
        assert substitute(p, images) == general_loop(p, images)

    @pytest.mark.parametrize(
        "ring, terms, images, message",
        [
            (
                RH, [((2, 0), 1), ((3, 0), 1)], {"x": "-A", "y": "1"},
                "fractional exponent 3/2 on a negative monomial image for 'x'",
            ),
            (
                R2, [((0, 2), 1), ((1, -1), 1)], {"u": "A", "w": "3*B"},
                "monomial image with coefficient 3 for 'w' needs a nonnegative integer exponent, got -1",
            ),
            (
                RH, [((2, 0), 1), ((2, 1), 1)], {"x": "A", "y": "B"},
                "substitution leaves fractional exponent 1/2 on 'B' (granularity 1)",
            ),
        ],
    )
    def test_a_later_term_that_cannot_map_raises_todays_error(self, ring, terms, images, message) -> None:
        p = ring.from_terms(terms)
        assert p.terms == tuple(terms)  # the failing term comes after one that maps
        images = {name: TARGET.parse(text) for name, text in images.items()}
        first = substitute(ring.from_terms(terms[:1]), images)
        assert len(first.terms) == 1
        with pytest.raises(SubstitutionError) as exc:
            substitute(p, images)
        assert str(exc.value) == message
        assert outcome(general_loop, p, images) == f"SubstitutionError: {message}"


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_addition_associative_commutative(self, p: LaurentPoly, q: LaurentPoly, r: LaurentPoly) -> None:
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys, polys, polys)
    def test_multiplication_associative_commutative(self, p: LaurentPoly, q: LaurentPoly, r: LaurentPoly) -> None:
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_distributive(self, p: LaurentPoly, q: LaurentPoly, r: LaurentPoly) -> None:
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_identities_and_inverse(self, p: LaurentPoly) -> None:
        assert p + R2.zero() == p
        assert p * R2.one() == p
        assert p - p == R2.zero()
        assert p * R2.zero() == R2.zero()

    @given(polys)
    def test_print_parse_round_trip(self, p: LaurentPoly) -> None:
        assert R2.parse(print_poly(p)) == p


class TestSubstitutionHomomorphism:
    # Arbitrary images require nonnegative source exponents.
    @settings(max_examples=200, deadline=None)
    @given(nonneg_polys, nonneg_polys, target_polys, target_polys)
    def test_on_polynomial_images(
        self, p: LaurentPoly, q: LaurentPoly, img_u: LaurentPoly, img_w: LaurentPoly
    ) -> None:
        images = {"u": img_u, "w": img_w}
        assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)
        assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)

    # Unit monomial images admit the full Laurent range of exponents.
    @settings(max_examples=200, deadline=None)
    @given(polys, polys, unit_monomials, unit_monomials)
    def test_on_unit_monomial_images(
        self, p: LaurentPoly, q: LaurentPoly, img_u: LaurentPoly, img_w: LaurentPoly
    ) -> None:
        images = {"u": img_u, "w": img_w}
        assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)
        assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)


# Term dicts of width 1-3, around a base that is 0, negative or past 2**64,
# with any coefficient (0 too: substitute multiplies dicts whose entries
# have cancelled). Up to 24 terms a side puts len(p) * len(q) on both
# sides of _PACK_MIN_PAIRS.
BASES = st.sampled_from((0, -7, 2**64, -(2**64) - 3, 2**70 + 1))


@st.composite
def term_dict_pairs(draw: st.DrawFn) -> tuple[dict, dict]:
    width = draw(st.integers(1, 3))
    pair = []
    for _ in range(2):
        bases = draw(st.tuples(*[BASES] * width))
        spread = draw(st.sampled_from((1, 3, 40)))
        units = st.tuples(*[st.integers(b - spread, b + spread) for b in bases])
        pair.append(draw(st.dictionaries(units, st.integers(-3, 3), max_size=24)))
    return pair[0], pair[1]


class TestPackedProducts:
    """_packed_mul against the tuple loop it replaces for large products."""

    @settings(max_examples=400, deadline=None)
    @given(term_dict_pairs())
    def test_equals_the_tuple_loop(self, pair: tuple[dict, dict]) -> None:
        p, q = pair
        expected = _tuple_mul(p, q)
        assert _packed_mul(p, q) == expected
        assert _dict_mul(p, q) == expected

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_fields_at_both_ends_of_the_sum_range(self, width: int) -> None:
        # The products reach both ends of every field's range [0, span],
        # and span needs every bit of its field.
        p = {tuple(u if i == j else 0 for j in range(width)): 1 for i in range(width) for u in (-5, 3)}
        q = {tuple(u if i == j else 0 for j in range(width)): 1 for i in range(width) for u in (-2**64, 2**64 + 8)}
        assert _packed_mul(p, q) == _tuple_mul(p, q)

    def test_empty_operands(self) -> None:
        p = {(1, 2): 3}
        assert _packed_mul({}, p) == _packed_mul(p, {}) == _packed_mul({}, {}) == {}
        assert R2.zero() * R2.parse("u + w") == R2.zero()

    def test_products_that_cancel_to_zero(self) -> None:
        # (1 - x) * (1 + x + ... + x^199) = 1 - x^200, from 400 term pairs.
        x = Ring(("x",))
        p = {(0,): 1, (1,): -1}
        q = {(k,): 1 for k in range(200)}
        product = _dict_mul(p, q)
        assert product == _tuple_mul(p, q)
        assert {u for u, c in product.items() if c} == {(0,), (200,)}
        assert x.from_terms(p.items()) * x.from_terms(q.items()) == x.parse("1 - x^200")
        # Whole products that cancel: (u + w)(u - w) - (u^2 - w^2), past the threshold.
        big = R2.from_terms(((i, j), 1) for i in range(12) for j in range(12))
        assert big * (R2.parse("u + w") * R2.parse("u - w")) - big * R2.parse("u^2 - w^2") == R2.zero()

    def test_small_products_keep_the_tuple_loop(self, monkeypatch: pytest.MonkeyPatch) -> None:
        calls = []
        monkeypatch.setattr(polyring, "_packed_mul", lambda p, q: calls.append((p, q)) or _tuple_mul(p, q))
        p = {(i,): 1 for i in range(8)}
        q = {(i,): 1 for i in range(_PACK_MIN_PAIRS // 8 - 1)}
        assert _dict_mul(p, q) == _tuple_mul(p, q)
        assert calls == []
        q[(-1,)] = 1
        assert _dict_mul(p, q) == _tuple_mul(p, q)
        assert calls == [(p, q)]

    def test_jones_on_classical_codes_never_packs(self, monkeypatch: pytest.MonkeyPatch) -> None:
        def refuse(p: dict, q: dict) -> dict:
            raise AssertionError(f"packed a {len(p)} x {len(q)} product")

        expected = [jones(diagram(torus_code(15)))]
        expected += [jones(diagram(add_kink(torus_code(14), kind, 3))) for kind in range(4)]
        monkeypatch.setattr(polyring, "_packed_mul", refuse)
        got = [jones(diagram(torus_code(15)))]
        got += [jones(diagram(add_kink(torus_code(14), kind, 3))) for kind in range(4)]
        assert got == expected


# Images for the general loop: zero, one term with coefficient +-1 or 2, or
# (drawn twice as often) two to four terms; sources with exponents in
# [-2, 4], so some inputs fail.
multi_term_images = (
    st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 5)), min_size=2, max_size=4)
    .map(TARGET.from_terms)
    .filter(lambda img: len(img.terms) > 1)
)
general_images = st.one_of(
    st.just(TARGET.zero()),
    st.tuples(st.sampled_from((1, -1, 2)), st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: TARGET.from_terms([((t[1], t[2]), t[0])])
    ),
    multi_term_images,
    multi_term_images,
)
mixed_sources = st.lists(
    st.tuples(st.tuples(st.integers(-2, 4), st.integers(-2, 4)), coeffs), max_size=10
).map(R2.from_terms)


def power(img: LaurentPoly, k: int) -> LaurentPoly:
    """img ** k, where k < 0 only for a monomial image with coefficient +-1."""
    if k >= 0:
        return img**k
    ((units, c),) = img.terms
    return TARGET.from_terms([(tuple(-x for x in units), c)]) ** -k


class TestSubstitutePowerCache:
    """The general loop reuses img ** k across the terms of one call."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_sources, general_images, general_images)
    def test_matches_per_term_powers_and_errors(self, p: LaurentPoly, u: LaurentPoly, w: LaurentPoly) -> None:
        images = {"u": u, "w": w}
        # One call per term: no power is reused across terms, and the
        # first term that cannot map raises the error of the whole call.
        per_term = TARGET.zero()
        for term in p.terms:
            alone = outcome(substitute, R2.from_terms([term]), images)
            if isinstance(alone, str):
                per_term = alone
                break
            per_term = per_term + alone
        assert outcome(substitute, p, images) == per_term
        if isinstance(per_term, LaurentPoly):
            # Independently: each term as c * u_img ** a * w_img ** b.
            expected = TARGET.zero()
            for (a, b), c in p.terms:
                if a > 0 and not u:  # vanishes before w's exponent is read
                    continue
                expected = expected + c * power(u, a) * power(w, b)
            assert per_term == expected

    def test_shared_exponent_distinct_images(self) -> None:
        # u^2 and w^2 share k = 2, with different images.
        p = R2.parse("u^2*w^2 + u^2 + w^2 + 3*u*w^2")
        images = {"u": TARGET.parse("A + B"), "w": TARGET.parse("A - 2*B^(-1)")}
        u, w = images["u"], images["w"]
        assert substitute(p, images) == u**2 * w**2 + u**2 + w**2 + 3 * u * w**2

    def test_zero_image_with_positive_exponent_vanishes(self) -> None:
        p = R2.parse("u^3*w + 2*w^2 + u^3")
        images = {"u": TARGET.zero(), "w": TARGET.parse("A + B")}
        assert substitute(p, images) == 2 * TARGET.parse("A + B") ** 2

    @pytest.mark.parametrize(
        "terms, images, message",
        [
            (
                [((0, 2), 1), ((1, -1), 1)], {"u": "A", "w": "A + B"},
                "non-monomial image for 'w' needs a nonnegative integer exponent, got -1",
            ),
            (
                [((1, 0), 1), ((2, -1), 1)], {"u": "A + B", "w": "0"},
                "zero image for 'w' raised to nonpositive exponent -1",
            ),
        ],
    )
    def test_a_later_term_that_cannot_map_raises_todays_error(self, terms, images, message) -> None:
        p = R2.from_terms(terms)
        assert p.terms == tuple(terms)  # a power is cached before the failing term
        images = {name: TARGET.parse(text) for name, text in images.items()}
        with pytest.raises(SubstitutionError) as exc:
            substitute(p, images)
        assert str(exc.value) == message
