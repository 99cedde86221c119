"""Virtual link diagrams as abstract oriented 4-valent codes.

A diagram is a list of classical crossings plus a count of free loops
(closed components meeting no crossing). Each crossing has four slots
(s0, s1, s2, s3) listed counterclockwise: s0 holds the incoming
under-strand arc, s2 the outgoing under-strand arc, and the over-strand
occupies s1 and s3. Arcs are positive integer labels; every arc id occurs
exactly twice over all slots, once as an incoming end and once as an
outgoing end. Virtual crossings are never recorded: they carry no data,
so any abstract code of this shape is a valid diagram whether or not it
is realizable in the plane.

Conventions fixed here and relied on everywhere else:

  * sign(c) = +1 iff the over-strand enters at s3 (runs s3 to s1),
    -1 iff it enters at s1.
  * The A-splitting pairs slot ends (s0,s1) and (s2,s3); the B-splitting
    pairs (s0,s3) and (s1,s2). With the sign rule above, the
    orientation-preserving (Seifert) splitting is A exactly at positive
    crossings.
  * The Kauffman bracket is the sum over all 2^n states of
    A^alpha(S) B^beta(S) d^(delta(S)-1), where alpha/beta count A/B
    choices and delta(S) counts the closed curves after splitting.
  * Jones: J(t) = (-1)^w t^(3w/4) times the bracket at A=t^(-1/4),
    B=t^(1/4), d=-t^(1/2)-t^(-1/2), with w the writhe.

Arc directions are inferred, not stored. Under-strand slots force their
arcs' directions; the over-strand directions propagate through the
constraints that each arc has one incoming and one outgoing end and each
crossing has exactly one incoming over-slot. A component that never
passes under is direction-ambiguous; the smallest undecided arc id is
then seeded as incoming at its lexicographically smallest occurrence.
Both choices are consistent, and the bracket does not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .polyring import LaurentPoly, Ring, substitute
from .walk import RollbackUnionFind, walk

__all__ = [
    "BRACKET_RING",
    "JONES_RING",
    "DEFAULT_MAX_CROSSINGS",
    "DiagramError",
    "EnumerationCapError",
    "CrossingCode",
    "State",
    "VirtualLinkDiagram",
    "parse_diagram",
    "print_diagram",
    "sign",
    "writhe",
    "split_circles",
    "enumerate_states",
    "kauffman_bracket",
    "bracket_partial",
    "jones",
    "seifert_state",
]

BRACKET_RING = Ring(("A", "B", "d"))
JONES_RING = Ring(("t",), (4,))

# Soft cap on crossings for full state enumeration (2^n states); every other
# enumeration cap default is derived from it.
DEFAULT_MAX_CROSSINGS = 24


class DiagramError(ValueError):
    """Invalid diagram text or an inconsistent crossing code."""


class EnumerationCapError(RuntimeError):
    """A full enumeration would exceed the configured cap."""


def _check_cap(size: int, cap: int, unit: str = "crossings") -> None:
    """Refuse to enumerate 2^size items when size exceeds cap.

    Every capped enumeration checks here: the bracket and `verify_identity`
    in crossings, `bollobas_riordan` and `tutte` in edges.
    """
    if size > cap:
        raise EnumerationCapError(f"{size} {unit} exceeds the enumeration cap of {cap}")


@dataclass(frozen=True)
class CrossingCode:
    """One classical crossing: slots (s0, s1, s2, s3) counterclockwise."""

    slots: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        object.__setattr__(self, "slots", slots)
        if len(slots) != 4:
            raise DiagramError(f"a crossing needs exactly 4 slots, got {slots!r}")
        for a in slots:
            if not isinstance(a, int) or a < 1:
                raise DiagramError(f"arc ids must be positive integers, got {a!r}")


@dataclass(frozen=True)
class State:
    """A splitting choice, 'A' or 'B', at every classical crossing."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for ch in letters:
            if ch not in ("A", "B"):
                raise ValueError(f"state letters must be 'A' or 'B', got {ch!r}")

    @classmethod
    def from_word(cls, word: str) -> "State":
        return cls(tuple(word))

    @classmethod
    def from_index(cls, n: int, index: int) -> "State":
        """State number `index` in alphabetical word order.

        Bit (n-1-i) of the index selects 'B' at crossing i, so index 0 is
        AA...A, index 1 is AA...AB, and index 2^n - 1 is BB...B.
        """
        return cls(tuple("B" if (index >> (n - 1 - i)) & 1 else "A" for i in range(n)))

    @property
    def word(self) -> str:
        return "".join(self.letters)

    @property
    def alpha(self) -> int:
        return sum(1 for ch in self.letters if ch == "A")

    @property
    def beta(self) -> int:
        return sum(1 for ch in self.letters if ch == "B")


@dataclass(frozen=True)
class VirtualLinkDiagram:
    """A validated oriented 4-valent code plus a free-loop count.

    Validation runs at construction: arc census (every id exactly twice)
    and global direction inference. The inferred data is cached on the
    instance: `over_in_slots[i]` is 1 or 3, the slot where the over-strand
    enters crossing i, and `_occurrences[a]` lists the two (crossing, slot)
    places of arc a.
    """

    crossings: tuple[CrossingCode, ...]
    free_loops: int = 0
    over_in_slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _occurrences: dict[int, list[tuple[int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        crossings = tuple(self.crossings)
        object.__setattr__(self, "crossings", crossings)
        if not isinstance(self.free_loops, int) or self.free_loops < 0:
            raise DiagramError(f"free_loops must be a nonnegative integer, got {self.free_loops!r}")
        if not crossings and self.free_loops == 0:
            raise DiagramError("empty diagram: no crossings and no free loops")
        occurrences: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(crossings):
            for si, a in enumerate(c.slots):
                occurrences.setdefault(a, []).append((ci, si))
        for a, places in occurrences.items():
            if len(places) != 2:
                raise DiagramError(f"arc {a} appears {len(places)} times; every arc must appear exactly twice")
        object.__setattr__(self, "_occurrences", occurrences)
        self._infer_directions()

    def _infer_directions(self) -> None:
        # incoming[place] is True when the arc in that slot points into the
        # crossing there. Under slots are forced; the rest propagates via
        # (a) an arc's two occurrences have opposite values and (b) the two
        # over-slots of one crossing have opposite values.
        occurrences = self._occurrences
        incoming: dict[tuple[int, int], bool] = {}
        stack: list[tuple[int, int]] = []

        def push(place: tuple[int, int], value: bool) -> None:
            old = incoming.get(place)
            if old is not None:
                if old != value:
                    ci, si = place
                    raise DiagramError(
                        f"inconsistent arc directions: crossing {ci + 1} slot s{si} "
                        f"(arc {self.crossings[ci].slots[si]}) is forced both ways"
                    )
                return
            incoming[place] = value
            stack.append(place)

        for ci in range(len(self.crossings)):
            push((ci, 0), True)
            push((ci, 2), False)
        undecided = sorted(occurrences)
        while True:
            while stack:
                place = stack.pop()
                value = incoming[place]
                ci, si = place
                arc = self.crossings[ci].slots[si]
                first, second = occurrences[arc]
                other = second if place == first else first
                push(other, not value)
                if si in (1, 3):
                    push((ci, 4 - si), not value)
            seed = None
            for arc in undecided:
                places = [p for p in occurrences[arc] if p not in incoming]
                if places:
                    seed = min(places)
                    break
            if seed is None:
                break
            push(seed, True)

        over_in = tuple(1 if incoming[(ci, 1)] else 3 for ci in range(len(self.crossings)))
        object.__setattr__(self, "over_in_slots", over_in)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if s == 3 else -1 for s in self.over_in_slots)


def sign(diagram: VirtualLinkDiagram, crossing: int) -> int:
    """Crossing sign: +1 iff the over-strand enters at slot s3."""
    return diagram.signs[crossing]


def writhe(diagram: VirtualLinkDiagram) -> int:
    """Sum of the crossing signs."""
    return sum(diagram.signs)


def split_circles(diagram: VirtualLinkDiagram, state: State) -> int:
    """delta(S): closed curves left after splitting every crossing.

    Union-find over the 4n slot ends: arcs glue their two occurrences;
    the A-splitting glues slot ends (s0,s1) and (s2,s3), the B-splitting
    (s0,s3) and (s1,s2). Each free loop adds one curve. This is the
    per-state reference; the state sums walk `_splice_links` instead.
    """
    n = len(diagram.crossings)
    if len(state.letters) != n:
        raise DiagramError(f"state has {len(state.letters)} letters for {n} crossings")
    uf = RollbackUnionFind(4 * n)
    for (c1, s1), (c2, s2) in diagram._occurrences.values():
        uf.union(4 * c1 + s1, 4 * c2 + s2)
    for ci, letter in enumerate(state.letters):
        base = 4 * ci
        if letter == "A":
            uf.union(base + 0, base + 1)
            uf.union(base + 2, base + 3)
        else:
            uf.union(base + 0, base + 3)
            uf.union(base + 1, base + 2)
    return uf.counts[0] + diagram.free_loops


def _splice_links(diagram: VirtualLinkDiagram) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Per crossing, the arc links of its A-splitting and of its B-splitting.

    An arc joins its two slot ends, so the curves of a state are the
    components of the 2n arcs (numbered from 0 in id order) under these
    links: (s0,s1), (s2,s3) for A and (s0,s3), (s1,s2) for B.
    """
    arc = {a: i for i, a in enumerate(sorted(diagram._occurrences))}
    links = []
    for c in diagram.crossings:
        s0, s1, s2, s3 = (arc[a] for a in c.slots)
        links.append((((s0, s1), (s2, s3)), ((s0, s3), (s1, s2))))
    return links


def enumerate_states(diagram: VirtualLinkDiagram) -> Iterator[State]:
    """All 2^n states in alphabetical word order (AA..A first)."""
    n = len(diagram.crossings)
    for index in range(1 << n):
        yield State.from_index(n, index)


def bracket_partial(diagram: VirtualLinkDiagram, start: int, stop: int) -> LaurentPoly:
    """Bracket contribution of state indices in [start, stop).

    One depth-first walk over the crossings (crossing i is bit n-1-i of
    the index) keeps the arc union-find of the current state prefix, so a
    state costs a few unions instead of a rebuild. Summing the partials of
    any partition of [0, 2^n) reproduces kauffman_bracket exactly, term
    for term; the enumeration may therefore be split across workers with a
    deterministic merge.
    """
    uf = RollbackUnionFind(2 * len(diagram.crossings))
    counts = uf.counts
    acc: dict[tuple[int, int], int] = {}
    for index in walk(uf, _splice_links(diagram), start, stop):
        key = (index.bit_count(), counts[0])
        acc[key] = acc.get(key, 0) + 1
    return _bracket_from_counts(diagram, acc)


def _bracket_from_counts(
    diagram: VirtualLinkDiagram, acc: dict[tuple[int, int], int]
) -> LaurentPoly:
    """The bracket terms of {(beta, arc components): number of states}."""
    n, loops = len(diagram.crossings), diagram.free_loops
    return BRACKET_RING.from_terms(
        ((n - beta, beta, arcs + loops - 1), count) for (beta, arcs), count in acc.items()
    )


def kauffman_bracket(
    diagram: VirtualLinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> LaurentPoly:
    """The bracket polynomial in A, B, d (exact state sum over 2^n states)."""
    n = len(diagram.crossings)
    _check_cap(n, max_crossings)
    return bracket_partial(diagram, 0, 1 << n)


def jones(diagram: VirtualLinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> LaurentPoly:
    """Jones polynomial in t with quarter-integer exponents."""
    br = kauffman_bracket(diagram, max_crossings)
    w = writhe(diagram)
    images = {
        "A": JONES_RING.monomial(1, {"t": Fraction(-1, 4)}),
        "B": JONES_RING.monomial(1, {"t": Fraction(1, 4)}),
        "d": JONES_RING.monomial(-1, {"t": Fraction(1, 2)})
        + JONES_RING.monomial(-1, {"t": Fraction(-1, 2)}),
    }
    prefactor = JONES_RING.monomial(-1 if w % 2 else 1, {"t": Fraction(3 * w, 4)})
    return prefactor * substitute(br, images)


def seifert_state(diagram: VirtualLinkDiagram) -> State:
    """The unique orientation-preserving state: A at +1 crossings, B at -1."""
    return State(tuple("A" if s == 1 else "B" for s in diagram.signs))


def parse_diagram(text: str) -> VirtualLinkDiagram:
    """Parse the line-oriented diagram format.

    Lines (after stripping `#` comments and blanks):
      X s0 s1 s2 s3   one classical crossing, slots counterclockwise,
                      s0 = incoming under-strand arc;
      L k             k free loops (lines accumulate; default 0).
    """
    crossings: list[CrossingCode] = []
    loops = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "X":
            if len(fields) != 5:
                raise DiagramError(f"line {ln}: X needs exactly 4 arc ids")
            try:
                slots = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise DiagramError(f"line {ln}: arc ids must be integers") from None
            if any(a < 1 for a in slots):
                raise DiagramError(f"line {ln}: arc ids must be positive")
            crossings.append(CrossingCode(slots))
        elif fields[0] == "L":
            if len(fields) != 2:
                raise DiagramError(f"line {ln}: L needs exactly one count")
            try:
                k = int(fields[1])
            except ValueError:
                raise DiagramError(f"line {ln}: loop count must be an integer") from None
            if k < 0:
                raise DiagramError(f"line {ln}: loop count must be nonnegative")
            loops += k
        else:
            raise DiagramError(f"line {ln}: unknown record {fields[0]!r} (expected X or L)")
    return VirtualLinkDiagram(tuple(crossings), loops)


def print_diagram(diagram: VirtualLinkDiagram) -> str:
    """Serialize back to the diagram format (one X line per crossing)."""
    lines = [f"X {c.slots[0]} {c.slots[1]} {c.slots[2]} {c.slots[3]}" for c in diagram.crossings]
    if diagram.free_loops:
        lines.append(f"L {diagram.free_loops}")
    return "\n".join(lines) + "\n"
