"""Depth-first state walks over a rollback union-find.

A state sum over 2^n binary choices is a complete binary tree: level i of
the tree fixes bit n-1-i of the state index, so the leaves come in index
order and every aligned block of indices is one subtree. Each choice is a
short list of union-find links. The union-find uses union by rank and no
path compression, so every merge is undone by resetting one parent (and
perhaps one rank) from an undo log. Walking the tree therefore costs a
few unions per tree node instead of a full rebuild per leaf.

The element set may be split into parts (say, diagram arcs, ribbon
ports, ribbon vertices) that no link ever crosses; the component count is
kept per part, so one log and one rollback serve several structures.

`walk_prefixes` cuts the tree at one level: it walks the high n-low bits
of the index and, at each prefix, hands over a table for the 2^low
suffixes below it. What the last low levels merge depends only on how
the prefix's union-find splits the elements those levels link, so the
tables are memoized under a canonical labelling of that split, as in
the boundary-partition method for Tutte sums (Sekine, Imai and Tani,
ISAAC 1995) and the isomorphism caching of Haggard, Pearce and Royle
(ACM TOMS 37, 2010). The memo holds at most a caller-given number of
tables and lives only as long as the walk.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["RollbackUnionFind", "walk", "walk_prefixes"]

Links = Sequence[tuple[int, int]]
T = TypeVar("T")


class RollbackUnionFind:
    """Union by rank with an undo log; `counts[p]` is part p's component count.

    Part p holds elements sizes[0] + ... + sizes[p-1] onward; with one size
    the elements are simply 0 .. size-1 and `counts[0]` is the count.
    """

    __slots__ = ("parent", "rank", "part", "counts", "log")

    def __init__(self, *sizes: int) -> None:
        total = sum(sizes)
        self.parent = list(range(total))
        self.rank = [0] * total
        self.part = [p for p, size in enumerate(sizes) for _ in range(size)]
        self.counts = list(sizes)
        # A merge logs its new child root, bitwise negated if it raised the
        # rank of the surviving root.
        self.log: list[int] = []

    def union(self, x: int, y: int) -> None:
        """Merge the components of x and y, two elements of the same part."""
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x == y:
            return
        rank = self.rank
        if rank[x] > rank[y]:
            x, y = y, x
        parent[x] = y
        if rank[x] == rank[y]:
            rank[y] += 1
            self.log.append(~x)
        else:
            self.log.append(x)
        self.counts[self.part[x]] -= 1

    def rollback(self, mark: int) -> None:
        """Undo every merge logged after the log had length `mark`."""
        log, parent, rank, part, counts = self.log, self.parent, self.rank, self.part, self.counts
        while len(log) > mark:
            x = log.pop()
            if x < 0:
                x = ~x
                rank[parent[x]] -= 1
            parent[x] = x
            counts[part[x]] += 1


def walk(
    uf: RollbackUnionFind, levels: Sequence[tuple[Links, Links]], start: int, stop: int
) -> Iterator[int]:
    """Yield each index in [start, stop) in order, with its links applied to uf.

    levels[i] holds the links for bit n-1-i of the index being 0 and being
    1. Between two consecutive indices only the levels from their highest
    differing bit down are undone and redone, and no subtree outside the
    range is entered, so any range, aligned or not, is walked exactly.
    Read uf.counts at each yield; a finished walk leaves uf as it found it.
    """
    n = len(levels)
    if start < 0 or stop > 1 << n:
        raise ValueError(f"index range [{start}, {stop}) is not within [0, 2^{n})")
    log = uf.log
    union = uf.union
    base = len(log)
    marks = [base] * n
    level = 0
    for index in range(start, stop):
        if index > start:
            # Bits below the lowest set bit of `index` went 1 -> 0, it went 0 -> 1.
            level = n - (index & -index).bit_length()
            uf.rollback(marks[level])
        for j in range(level, n):
            marks[j] = len(log)
            for x, y in levels[j][index >> (n - 1 - j) & 1]:
                union(x, y)
        yield index
    uf.rollback(base)


def walk_prefixes(
    uf: RollbackUnionFind,
    levels: Sequence[tuple[Links, Links]],
    low: int,
    build: Callable[[tuple[bytes, ...]], T],
    max_tables: int,
) -> Iterator[tuple[int, T]]:
    """Walk the high n-low bits of the index; yield (prefix, suffix table).

    Prefixes come in order, each with uf holding the links of levels
    0..n-low-1, and the table is build(merges): merges[p][s] is how many
    part-p components the links of suffix s (the last low levels, s in
    0..2^low-1) merge on top of uf. That depends only on how uf splits
    the elements those levels link, so the memo key is the canonical
    block labelling of those elements: in element order, each gets the
    number of its component among the components seen so far. A missed
    key is built by a 2^low sub-walk over the labels. At most max_tables
    tables are stored; past that, a missed key is built again each time
    and not stored. The memo is dropped when the walk ends, and a
    finished walk leaves uf as it found it.
    """
    n = len(levels)
    low = min(low, n)
    tail = levels[n - low :]
    boundary = sorted({x for choices in tail for links in choices for link in links for x in link})
    position = {x: i for i, x in enumerate(boundary)}
    tail_links = [
        tuple(tuple((position[x], position[y]) for x, y in links) for links in choices)
        for choices in tail
    ]
    boundary_parts = [uf.part[x] for x in boundary]
    part_count = len(uf.counts)
    parent = uf.parent
    memo: dict[bytes, T] = {}
    for prefix in walk(uf, levels[: n - low], 0, 1 << (n - low)):
        labels: dict[int, int] = {}
        labelling = []
        for x in boundary:
            while parent[x] != x:
                x = parent[x]
            labelling.append(labels.setdefault(x, len(labels)))
        key = array("H", labelling).tobytes()
        table = memo.get(key)
        if table is None:
            table = build(_suffix_merges(labelling, boundary_parts, part_count, tail_links))
            if len(memo) < max_tables:
                memo[key] = table
        yield prefix, table


def _suffix_merges(
    labels: list[int], parts: list[int], part_count: int, tail_links: list
) -> tuple[bytes, ...]:
    """Per part, the merges of each suffix, from a 2^low walk over the labelled blocks."""
    # Labels come in element order and parts are contiguous element ranges,
    # so each part's blocks are a contiguous label range.
    sizes = [0] * part_count
    for i, label in enumerate(labels):
        if label == sum(sizes):
            sizes[parts[i]] += 1
    sub = RollbackUnionFind(*sizes)
    sub_levels = [
        tuple(tuple((labels[i], labels[j]) for i, j in links if labels[i] != labels[j]) for links in choices)
        for choices in tail_links
    ]
    counts = sub.counts
    seen = [tuple(counts) for _ in walk(sub, sub_levels, 0, 1 << len(tail_links))]
    return tuple(bytes(map(size.__sub__, part)) for size, part in zip(sizes, zip(*seen)))
