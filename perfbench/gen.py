"""Seeded input text for the workloads.

Every input is a pure function of its `random.Random`, and nothing here
imports vlinkpoly: the program sees only the text these functions return.
"""

from __future__ import annotations

import random

Code = list[tuple[int, int, int, int]]


def torus_code(m: int) -> Code:
    """Closure of the positive 2-braid sigma^m; every crossing has sign +1.

    Arc 2i+1 runs along braid position 1 into crossing i, arc 2i+2 along
    position 2. At each crossing the position-2 strand passes under to
    position 1, and the over-strand enters at s3.
    """
    def a(i: int) -> int:
        return 2 * (i % m) + 1

    def b(i: int) -> int:
        return 2 * (i % m) + 2

    return [(b(i), b(i + 1), a(i + 1), a(i)) for i in range(m)]


def mirror(code: Code) -> Code:
    """Reverse the slot cycle: (s0, s1, s2, s3) -> (s0, s3, s2, s1)."""
    return [(s0, s3, s2, s1) for s0, s1, s2, s3 in code]


def add_kink(code: Code, rng: random.Random) -> Code:
    """Insert one Reidemeister I kink just before a random crossing's
    incoming under-end (slot s0, incoming by definition), of a random kind.

    The loop arc sits in two cyclically adjacent slots of the new crossing,
    so the kink is classical. The four kinds cover both signs and both
    orders (under first or over first).
    """
    code = [list(c) for c in code]
    top = max(max(c) for c in code)
    loop, y = top + 1, top + 2
    ci = rng.randrange(len(code))
    arc = code[ci][0]
    code[ci][0] = y
    kinds = [
        (arc, loop, loop, y),
        (arc, y, loop, loop),
        (loop, arc, y, loop),
        (loop, loop, y, arc),
    ]
    return [tuple(c) for c in code] + [rng.choice(kinds)]


def relabel(code: Code, rng: random.Random) -> Code:
    """Random arc labels and a random crossing order: the same diagram."""
    arcs = sorted({a for c in code for a in c})
    fresh = list(range(1, len(arcs) + 1))
    rng.shuffle(fresh)
    rename = dict(zip(arcs, fresh))
    out = [tuple(rename[a] for a in c) for c in code]
    rng.shuffle(out)
    return out


def random_virtual_code(n: int, rng: random.Random) -> Code:
    """A uniformly wired abstract code: a random bijection from the 2n
    outgoing crossing ends to the 2n incoming ones, and a random slot (s1
    or s3) for each incoming over-end. Every such code is a valid virtual
    diagram, and almost none is planar."""
    over_in = [rng.choice((1, 3)) for _ in range(n)]
    ends_out = [(ci, 2) for ci in range(n)] + [(ci, 4 - over_in[ci]) for ci in range(n)]
    ends_in = [(ci, 0) for ci in range(n)] + [(ci, over_in[ci]) for ci in range(n)]
    rng.shuffle(ends_in)
    slots = [[0, 0, 0, 0] for _ in range(n)]
    for arc, ((co, so), (cn, sn)) in enumerate(zip(ends_out, ends_in), start=1):
        slots[co][so] = arc
        slots[cn][sn] = arc
    return [tuple(s) for s in slots]


def code_text(code: Code) -> str:
    return "".join(f"X {s0} {s1} {s2} {s3}\n" for s0, s1, s2, s3 in code)


def random_terms(
    rng: random.Random,
    count: int,
    ranges: list[tuple[int, int]],
    coeff: int = 9,
    parity: bool = False,
) -> dict[tuple[int, ...], int]:
    """`count` distinct terms, exponents in quantum units drawn from
    `ranges`; with `parity`, the first two unit counts share a parity."""
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < count:
        units = [rng.randint(lo, hi) for lo, hi in ranges]
        if parity and (units[0] - units[1]) % 2:
            units[1] += 1 if units[1] < ranges[1][1] else -1
        c = rng.randint(-coeff, coeff)
        if c:
            terms[tuple(units)] = c
    return terms


def poly_text(
    terms: dict[tuple[int, ...], int],
    variables: tuple[str, ...],
    grains: tuple[int, ...],
    rng: random.Random,
) -> str:
    """Input text in the program's grammar, terms in shuffled order; unit
    counts u of a variable with grain g print as the exponent u/g."""
    items = list(terms.items())
    rng.shuffle(items)
    out = []
    for units, c in items:
        factors = [str(abs(c))] + [
            f"{v}^({u}/{g})" if g > 1 else f"{v}^({u})"
            for v, u, g in zip(variables, units, grains)
            if u
        ]
        out.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(out)
