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
"""

from __future__ import annotations

from typing import Iterator, Sequence

__all__ = ["RollbackUnionFind", "walk"]

Links = Sequence[tuple[int, int]]


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
