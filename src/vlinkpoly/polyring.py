"""Exact multivariate Laurent polynomials with fractional exponents.

Coefficients are unbounded Python ints. Each ring variable carries a
*granularity* g in {1, 2, 4}: every exponent of that variable must be a
multiple of 1/g. Exponents are stored as integer counts of quantum units
1/g, so all arithmetic stays in exact integer arithmetic and terms with
equal exponent vectors always collide. Granularity 1 gives ordinary
Laurent polynomials; 2 admits half-integer exponents (x^(1/2)); 4 admits
quarter-integer exponents (t^(-1/4)).

Term order is canonical: ascending lexicographic on the quantum-unit
vectors in declared variable order. Printing follows that order, so text
output is deterministic and diff-stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Ring",
    "Monomial",
    "LaurentPoly",
    "PolyParseError",
    "SubstitutionError",
    "parse_poly",
    "print_poly",
    "substitute",
]

# Exponent vector in quantum units, one entry per ring variable; the actual
# exponent of variable i is entry_i / granularity_i.
Monomial = tuple[int, ...]

ExponentLike = Union[int, Fraction]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class PolyParseError(ValueError):
    """Malformed polynomial text, or an exponent the ring cannot represent."""


class SubstitutionError(ValueError):
    """A substitution image cannot be applied exactly."""


@dataclass(frozen=True)
class Ring:
    """An ordered set of variable names with per-variable granularity."""

    variables: tuple[str, ...]
    granularity: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        names = tuple(self.variables)
        grans = tuple(self.granularity) if self.granularity else (1,) * len(names)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "granularity", grans)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(grans) != len(names):
            raise ValueError("granularity list must match the variable list")
        for g in grans:
            if g not in (1, 2, 4):
                raise ValueError(f"granularity must be 1, 2, or 4, got {g!r}")

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in ring {self.variables}") from None

    def units(self, name: str, exponent: ExponentLike) -> int:
        """Convert an exponent to quantum units of the named variable."""
        i = self.index(name)
        u = Fraction(exponent) * self.granularity[i]
        if u.denominator != 1:
            raise ValueError(
                f"exponent {exponent} of {name!r} is not a multiple of "
                f"1/{self.granularity[i]}"
            )
        return int(u)

    def exponents_of(self, units: Monomial) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, g) for u, g in zip(units, self.granularity))

    def from_terms(self, terms: Iterable[tuple[Monomial, int]]) -> "LaurentPoly":
        """Normalizing constructor: merges duplicates, drops zeros, sorts."""
        width = len(self.variables)
        acc: dict[Monomial, int] = {}
        for units, coeff in terms:
            units = tuple(units)
            if len(units) != width:
                raise ValueError(f"exponent vector {units!r} has wrong length for {self.variables}")
            acc[units] = acc.get(units, 0) + coeff
        kept = sorted((u, c) for u, c in acc.items() if c != 0)
        return LaurentPoly(self, tuple(kept))

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, ())

    def one(self) -> "LaurentPoly":
        return self.constant(1)

    def constant(self, coeff: int) -> "LaurentPoly":
        return self.from_terms([((0,) * len(self.variables), coeff)])

    def monomial(self, coeff: int, exponents: Mapping[str, ExponentLike]) -> "LaurentPoly":
        units = [0] * len(self.variables)
        for name, exp in exponents.items():
            units[self.index(name)] += self.units(name, exp)
        return self.from_terms([(tuple(units), coeff)])

    def variable(self, name: str, exponent: ExponentLike = 1) -> "LaurentPoly":
        return self.monomial(1, {name: exponent})

    def parse(self, text: str) -> "LaurentPoly":
        return parse_poly(self, text)


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    `terms` is a tuple of (quantum-unit vector, nonzero coefficient) pairs
    in canonical ascending order. Build instances through Ring factories or
    arithmetic, never by hand.
    """

    ring: Ring
    terms: tuple[tuple[Monomial, int], ...]

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.ring != self.ring:
                raise ValueError(
                    f"ring mismatch: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for units, coeff in other.terms:
            acc[units] = acc.get(units, 0) + coeff
        return self.ring.from_terms(acc.items())

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, tuple((u, -c) for u, c in self.terms))

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = _dict_mul(dict(self.terms), dict(other.terms))
        return self.ring.from_terms(acc.items())

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {power!r}")
        result = self.ring.one()
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return print_poly(self)

    def coefficient(self, exponents: Mapping[str, ExponentLike]) -> int:
        units = [0] * len(self.ring.variables)
        for name, exp in exponents.items():
            units[self.ring.index(name)] += self.ring.units(name, exp)
        key = tuple(units)
        for u, c in self.terms:
            if u == key:
                return c
        return 0

    def items(self) -> Iterator[tuple[tuple[Fraction, ...], int]]:
        """Yield (exponent vector as Fractions, coefficient) in canonical order."""
        for units, coeff in self.terms:
            yield self.ring.exponents_of(units), coeff


# Products of fewer term pairs keep the tuple loop. Packing costs one pass
# over each operand and one over the result; measured on CPython 3.11, it
# breaks even near 64 pairs on square products of 2-3 variables and near
# 256 on one term times many. 128 also keeps `jones`' products (at most
# 9 x 9 at n = 15) and `verify_identity`'s prefactor at n = 13 (1 x 54)
# off the packed path.
_PACK_MIN_PAIRS = 128


def _dict_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    """Product of two term dicts; sums that cancel stay in as zero entries.

    Below _PACK_MIN_PAIRS term pairs (len(p) * len(q)) it runs the tuple
    loop, `_tuple_mul`. From there on it multiplies packed monomials
    (`_packed_mul`): each exponent vector becomes one biased fixed-width
    int whose field per variable is wide enough for the whole range of
    the *sum*, so adding two packed ints never carries from one field
    into the next, and a monomial product is one integer add.
    """
    if len(p) * len(q) < _PACK_MIN_PAIRS:
        return _tuple_mul(p, q)
    return _packed_mul(p, q)


def _tuple_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    acc: dict[Monomial, int] = {}
    for u1, c1 in p.items():
        for u2, c2 in q.items():
            key = tuple(a + b for a, b in zip(u1, u2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _packed_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    """`_tuple_mul` on Kronecker-packed monomials (Monagan & Pearce, 2011).

    Variable i of an operand packs as units_i - low_i, low_i being its
    least value in that operand, into a field of span_i.bit_length() bits,
    where span_i is the range of variable i over the product; the first
    variable takes the highest field. A sum of two packed ints holds
    units_i - low_p_i - low_q_i in [0, span_i] in each field, and is read
    back once per result term.
    """
    if not p or not q:
        return {}
    cols_p, cols_q = list(zip(*p)), list(zip(*q))
    low_p, low_q = [min(c) for c in cols_p], [min(c) for c in cols_q]
    spans = [max(cp) + max(cq) - lp - lq for cp, cq, lp, lq in zip(cols_p, cols_q, low_p, low_q)]
    bits = [span.bit_length() for span in spans]
    shifts = [sum(bits[i + 1:]) for i in range(len(bits))]
    masks = [(1 << b) - 1 for b in bits]

    def pack(cols: list[tuple[int, ...]], low: list[int]) -> list[int]:
        packed = [0] * len(cols[0])
        for col, lo, s in zip(cols, low, shifts):
            packed = list(map(add, packed, [(u - lo) << s for u in col]))
        return packed

    packed_q = list(zip(pack(cols_q, low_q), q.values()))
    acc: dict[int, int] = {}
    get = acc.get
    for a, c1 in zip(pack(cols_p, low_p), p.values()):
        for b, c2 in packed_q:
            key = a + b
            acc[key] = get(key, 0) + c1 * c2
    cols = [
        [((key >> s) & mask) + lp + lq for key in acc]
        for s, mask, lp, lq in zip(shifts, masks, low_p, low_q)
    ]
    return dict(zip(zip(*cols), acc.values()))


def _monomial_images(
    p: LaurentPoly, images: Mapping[str, LaurentPoly], width: int
) -> dict[Monomial, int] | None:
    """substitute's terms when every image is one term, or None if one cannot map.

    Source variable i at u units is raised to u/g_i, and 4/g_i is an
    integer, so each term maps to one target term whose units, times 4,
    are an integer sum; it maps exactly iff every sum is divisible by 4
    and the coefficients allow the exponents. None hands the whole input
    to substitute's general loop, which raises the error.
    """
    ring = p.ring
    scaled = []
    for name, g in zip(ring.variables, ring.granularity):
        ((iunits, icoeff),) = images[name].terms
        scaled.append((g, icoeff, [x * (4 // g) for x in iunits]))
    acc: dict[Monomial, int] = {}
    for units, coeff in p.terms:
        total = [0] * width
        for u, (g, icoeff, row) in zip(units, scaled):
            if not u:
                continue
            if icoeff != 1:
                k, rest = divmod(u, g)
                if rest or (k < 0 and icoeff != -1):
                    return None
                coeff = (-coeff if k & 1 else coeff) if icoeff == -1 else coeff * icoeff**k
            total = [t + u * x for t, x in zip(total, row)]
        if any(t & 3 for t in total):
            return None
        key = tuple(t >> 2 for t in total)
        acc[key] = acc.get(key, 0) + coeff
    return acc


def substitute(p: LaurentPoly, images: Mapping[str, LaurentPoly]) -> LaurentPoly:
    """Apply the ring homomorphism sending each variable to its image.

    Every variable of p's ring must have an image, all images in one common
    target ring. Non-monomial images are only valid at nonnegative integer
    exponents. A single-term (monomial) image may be raised to any rational
    exponent when its coefficient is 1; coefficient -1 additionally needs an
    integer exponent, and other coefficients a nonnegative integer exponent,
    so that coefficients stay in the integers. Fractional exponents must
    cancel within each output term: the check is on the accumulated
    quantum-unit total per term, not on individual factors.

    When every image is one term, each source term maps to one target term
    by integer arithmetic on quantum units (`_monomial_images`), with no
    Fraction and no polynomial power. Otherwise, and for any input that
    path cannot map exactly, each term is expanded factor by factor; a
    power img ** k of a many-term image is computed once per (variable, k)
    and kept for the rest of the call.
    """
    ring = p.ring
    given = set(images)
    needed = set(ring.variables)
    if needed - given:
        raise SubstitutionError(f"missing image for variable(s) {sorted(needed - given)}")
    if given - needed:
        raise SubstitutionError(f"image given for unknown variable(s) {sorted(given - needed)}")
    target = None
    for name in ring.variables:
        img = images[name]
        if target is None:
            target = img.ring
        elif img.ring != target:
            raise SubstitutionError("images do not all live in the same target ring")
    assert target is not None
    width = len(target.variables)
    if all(len(images[name].terms) == 1 for name in ring.variables):
        mapped = _monomial_images(p, images, width)
        if mapped is not None:
            return target.from_terms(mapped.items())

    acc: dict[Monomial, int] = {}
    powers: dict[tuple[str, int], dict[Monomial, int]] = {}
    for units, coeff in p.terms:
        mono_units = [Fraction(0)] * width
        mono_coeff = coeff
        tail: list[tuple[str, int]] = []
        vanished = False
        for i, u in enumerate(units):
            if u == 0:
                continue
            exp = Fraction(u, ring.granularity[i])
            name = ring.variables[i]
            img = images[name]
            if not img.terms:
                if exp > 0:
                    vanished = True
                    break
                raise SubstitutionError(
                    f"zero image for {name!r} raised to nonpositive exponent {exp}"
                )
            if len(img.terms) == 1:
                iunits, icoeff = img.terms[0]
                if icoeff == 1:
                    pass
                elif icoeff == -1:
                    if exp.denominator != 1:
                        raise SubstitutionError(
                            f"fractional exponent {exp} on a negative monomial image for {name!r}"
                        )
                    if exp % 2:
                        mono_coeff = -mono_coeff
                else:
                    if exp.denominator != 1 or exp < 0:
                        raise SubstitutionError(
                            f"monomial image with coefficient {icoeff} for {name!r} "
                            f"needs a nonnegative integer exponent, got {exp}"
                        )
                    mono_coeff *= icoeff ** int(exp)
                for j, uj in enumerate(iunits):
                    if uj:
                        mono_units[j] += exp * uj
            else:
                if exp.denominator != 1 or exp < 0:
                    raise SubstitutionError(
                        f"non-monomial image for {name!r} needs a nonnegative "
                        f"integer exponent, got {exp}"
                    )
                tail.append((name, int(exp)))
        if vanished:
            continue
        final_units = []
        for j, f in enumerate(mono_units):
            if f.denominator != 1:
                raise SubstitutionError(
                    f"substitution leaves fractional exponent {f} on "
                    f"{target.variables[j]!r} (granularity {target.granularity[j]})"
                )
            final_units.append(int(f))
        term: dict[Monomial, int] = {tuple(final_units): mono_coeff}
        for name, k in tail:
            power = powers.get((name, k))
            if power is None:
                power = powers[name, k] = dict((images[name] ** k).terms)
            term = _dict_mul(term, power)
        for key, c in term.items():
            acc[key] = acc.get(key, 0) + c
    return target.from_terms(acc.items())


# --- text format ------------------------------------------------------------
#
# poly     := [sign] term { sign term }
# term     := factor { '*' factor }
# factor   := INT | VAR [ '^' exponent ]
# exponent := [ '-' ] INT [ '/' INT ]  |  '(' [ '-' ] INT [ '/' INT ] ')'
#
# Whitespace is free between tokens. Printing always parenthesizes negative
# and fractional exponents, writes the coefficient first, and omits a
# coefficient of 1 when the term has variable factors.

_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[*^+()/-])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise PolyParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        tokens.append((str(kind), m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise PolyParseError(f"expected {op!r} at position {tok[2]}, got {tok[1]!r}")

    def expect_int(self) -> int:
        tok = self.take()
        if tok[0] != "int":
            raise PolyParseError(f"expected an integer at position {tok[2]}, got {tok[1]!r}")
        return int(tok[1])

    def parse(self) -> LaurentPoly:
        if not self.tokens:
            raise PolyParseError("empty polynomial text")
        terms: list[tuple[Monomial, int]] = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            units, coeff = self.term()
            terms.append((units, sign * coeff))
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                sign = -1 if tok[1] == "-" else 1
            else:
                raise PolyParseError(
                    f"expected '+' or '-' between terms at position {tok[2]}, got {tok[1]!r}"
                )
        return self.ring.from_terms(terms)

    def term(self) -> tuple[Monomial, int]:
        units = [0] * len(self.ring.variables)
        coeff = 1
        while True:
            tok = self.take()
            if tok[0] == "int":
                coeff *= int(tok[1])
            elif tok[0] == "name":
                name = tok[1]
                exp: ExponentLike = 1
                nxt = self.peek()
                if nxt and nxt[0] == "op" and nxt[1] == "^":
                    self.take()
                    exp = self.exponent()
                try:
                    units[self.ring.index(name)] += self.ring.units(name, exp)
                except ValueError as exc:
                    raise PolyParseError(f"at position {tok[2]}: {exc}") from None
            else:
                raise PolyParseError(
                    f"expected a coefficient or variable at position {tok[2]}, got {tok[1]!r}"
                )
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                self.take()
                continue
            return tuple(units), coeff

    def exponent(self) -> Fraction:
        parens = False
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "(":
            self.take()
            parens = True
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            sign = -1
        num = self.expect_int()
        den = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "/":
            self.take()
            den = self.expect_int()
            if den == 0:
                raise PolyParseError("zero denominator in exponent")
        if parens:
            self.expect_op(")")
        return Fraction(sign * num, den)


def parse_poly(ring: Ring, text: str) -> LaurentPoly:
    """Parse polynomial text in the grammar above into the given ring."""
    return _Parser(ring, text).parse()


def print_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms ascending in the quantum-unit order."""
    if not p.terms:
        return "0"
    ring = p.ring
    chunks = []
    for idx, (units, coeff) in enumerate(p.terms):
        factors = []
        for i, u in enumerate(units):
            if u == 0:
                continue
            e = Fraction(u, ring.granularity[i])
            name = ring.variables[i]
            if e == 1:
                factors.append(name)
            elif e.denominator == 1 and e > 0:
                factors.append(f"{name}^{e}")
            else:
                factors.append(f"{name}^({e})")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if idx == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)
