"""Explicit enumerations that the bitmask routes are checked against.

Each oracle walks the combinatorial objects one by one in plain Python, so it
shares no table or recursion with the package code it checks.  Energies sum
the float matrix entries pair by pair.
"""

import itertools
import math


def set_partitions(n):
    """Every partition of [n] as a tuple of frozenset blocks, in
    restricted-growth-string order."""
    rgs = [0] * n

    def rec(i, top):
        if i == n:
            blocks = [set() for _ in range(top + 1)]
            for v, b in enumerate(rgs, start=1):
                blocks[b].add(v)
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


def block_energy(m, block):
    """U(X): the sum of V_ij over the unordered pairs inside X."""
    vals = m.effective_values()
    return sum(float(vals[i - 1, j - 1]) for i, j in itertools.combinations(sorted(block), 2))


def cross_energy(m, left, right):
    """W: the sum of V_ij over i in one block and j in the other."""
    vals = m.effective_values()
    return sum(float(vals[i - 1, j - 1]) for i in left for j in right)


def merge_histories(n):
    """Every complete merge history of [n] as a tuple of (A, B) block pairs,
    in the merge route's order: depth first from the singletons, the current
    blocks sorted by lowest vertex, block positions (a, b), a < b, in
    lexicographic order."""

    def rec(blocks, steps):
        if len(blocks) == 1:
            yield tuple(steps)
            return
        for a, b in itertools.combinations(range(len(blocks)), 2):
            rest = [blk for k, blk in enumerate(blocks) if k not in (a, b)]
            merged = sorted(rest + [blocks[a] | blocks[b]], key=min)
            yield from rec(merged, steps + [(blocks[a], blocks[b])])

    yield from rec([frozenset({v}) for v in range(1, n + 1)], [])


def replay(n, history):
    """The partitions of [n] after each step of a merge history."""
    blocks = {frozenset({v}) for v in range(1, n + 1)}
    partitions = []
    for left, right in history:
        assert left in blocks and right in blocks and left != right
        blocks = (blocks - {left, right}) | {left | right}
        partitions.append(blocks)
    return partitions


def stirling2_row(n):
    """[S(n, 1), ..., S(n, n)]: partition counts of [n] by number of blocks."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        table = [0] + [k * table[k] + table[k - 1] for k in range(1, m + 1)] + [0] * (n - m)
    return table[1:]


def mobius_alternating_sum(n):
    """sum_k (-1)^(k-1) (k-1)! S(n, k), exactly; it vanishes for n >= 2."""
    return sum(
        (-1) ** (k - 1) * math.factorial(k - 1) * count
        for k, count in enumerate(stirling2_row(n), start=1)
    )
