"""Reference arithmetic the benchmark checks the program against.

Nothing here imports vlinkpoly. Polynomials are dicts mapping a tuple of
exponents (one per variable, in the ring's declared order; `Fraction`s,
or ints for exponents counted in quantum units) to a nonzero int
coefficient. The printed-output parser accepts only the program's
canonical text form, so a reordered or non-canonical print fails the
check as surely as a wrong coefficient.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict[tuple[Fraction, ...], int]

_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+)|\^\((-?[0-9]+(?:/[0-9]+)?)\))?")
_INT_RE = re.compile(r"[0-9]+")


class CheckError(Exception):
    """An output that fails a check."""


def parse_printed(text: str, variables: tuple[str, ...]) -> Poly:
    """Parse canonical printed text; raise CheckError on any deviation."""
    text = text.strip()
    if text == "0":
        return {}
    chunks = re.split(r" ([+-]) ", text)
    signs = ["-" if chunks[0].startswith("-") else "+"] + chunks[1::2]
    bodies = [chunks[0][1:] if chunks[0].startswith("-") else chunks[0]] + chunks[2::2]
    poly: Poly = {}
    previous = None
    for sign, body in zip(signs, bodies):
        factors = body.split("*")
        coeff = 1
        if _INT_RE.fullmatch(factors[0]):
            coeff = int(factors.pop(0))
            if coeff == 0 or (coeff == 1 and factors):
                raise CheckError(f"non-canonical coefficient in term {body!r}")
        exps = [Fraction(0)] * len(variables)
        last_var = -1
        for factor in factors:
            m = _FACTOR_RE.fullmatch(factor)
            if not m or m.group(1) not in variables:
                raise CheckError(f"bad factor {factor!r} in {text[:80]!r}")
            vi = variables.index(m.group(1))
            if vi <= last_var:
                raise CheckError(f"variables out of order in term {body!r}")
            last_var = vi
            if m.group(2) is not None:
                e = Fraction(int(m.group(2)))
                if e <= 1:
                    raise CheckError(f"non-canonical exponent in {factor!r}")
            elif m.group(3) is not None:
                e = Fraction(m.group(3))
                if e.denominator == 1 and e > 0:
                    raise CheckError(f"non-canonical exponent in {factor!r}")
            else:
                e = Fraction(1)
            exps[vi] = e
        key = tuple(exps)
        if previous is not None and key <= previous:
            raise CheckError(f"terms not in ascending order at {body!r}")
        previous = key
        poly[key] = -coeff if sign == "-" else coeff
    return poly


def _add_into(acc: Poly, key: tuple[Fraction, ...], c: int) -> None:
    total = acc.get(key, 0) + c
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def mul(p: Poly, q: Poly) -> Poly:
    acc: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add_into(acc, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return acc


def add(p: Poly, q: Poly) -> Poly:
    acc = dict(p)
    for e, c in q.items():
        _add_into(acc, e, c)
    return acc


def uni(terms: dict) -> Poly:
    """A one-variable polynomial from {exponent: coefficient}."""
    acc: Poly = {}
    for e, c in terms.items():
        _add_into(acc, (Fraction(e),), c)
    return acc


def invert(p: Poly) -> Poly:
    """t -> 1/t on a one-variable polynomial."""
    return {(-e,): c for (e,), c in p.items()}


def _divide_exact(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Polynomial long division over Z in t, nonnegative integer exponents."""
    num = {e: c for e, c in num.items() if c}
    top = max(den)
    lead = den[top]
    quot: dict[int, int] = {}
    while num:
        e = max(num)
        if e < top or num[e] % lead:
            raise ArithmeticError("division is not exact")
        q = num[e] // lead
        quot[e - top] = q
        for d, c in den.items():
            k = e - top + d
            num[k] = num.get(k, 0) - q * c
            if num[k] == 0:
                del num[k]
    return quot


def torus_knot_jones(m: int) -> Poly:
    """Jones of the positive (2,m) torus knot, m odd:
    t^((m-1)/2) (1 - t^3 - t^(m+1) + t^(m+2)) / (1 - t^2)."""
    if m % 2 == 0 or m < 1:
        raise ValueError("the closed form is for odd m")
    num = {0: 1, 3: -1, m + 1: -1, m + 2: 1}
    quot = _divide_exact(num, {0: 1, 2: -1})
    shift = (m - 1) // 2
    return uni({e + shift: c for e, c in quot.items()})


def torus_link_jones(m: int) -> Poly:
    """Jones of the closure of the positive 2-braid sigma^m (any m >= 0).

    Skein relation t^-1 V(L+) - t V(L-) = (t^(1/2) - t^(-1/2)) V(L0) at one
    crossing of the braid gives V_m = t^2 V_(m-2) + (t^(3/2) - t^(1/2)) V_(m-1),
    from V_0 = -t^(1/2) - t^(-1/2) (two-component unlink) and V_1 = 1.
    """
    half = Fraction(1, 2)
    prev, cur = uni({half: -1, -half: -1}), uni({0: 1})
    if m == 0:
        return prev
    step = uni({3 * half: 1, half: -1})
    t2 = uni({2: 1})
    for _ in range(m - 1):
        prev, cur = cur, add(mul(t2, prev), mul(step, cur))
    return cur


def evaluate(p: Poly, roots: tuple[Fraction, ...], grains: tuple[int, ...]) -> Fraction:
    """Value of p where variable i equals roots[i] ** grains[i].

    Each exponent times its grain must be an integer, so quarter and half
    exponents evaluate exactly at perfect powers.
    """
    powers: list[dict[Fraction, Fraction]] = [{} for _ in roots]
    total = Fraction(0)
    for exps, c in p.items():
        value = Fraction(c)
        for i, e in enumerate(exps):
            if not e:
                continue
            cache = powers[i]
            v = cache.get(e)
            if v is None:
                k = e * grains[i]
                if k.denominator != 1:
                    raise CheckError(f"exponent {e} is not a multiple of 1/{grains[i]}")
                v = cache[e] = Fraction(roots[i]) ** int(k)
            value *= v
        total += value
    return total


def count_components(code: list[tuple[int, int, int, int]]) -> int:
    """Link components of a crossing code: strands run s0-s2 and s1-s3."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s0, s1, s2, s3 in code:
        for x, y in ((s0, s2), (s1, s3)):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    return len({find(a) for a in list(parent)})
