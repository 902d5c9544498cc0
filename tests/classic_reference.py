"""The list builders that classic.py used before it built each network one
recursion depth at a time, kept verbatim as the reference the differential
tests in test_classic.py compare against: one gate per `_Builder.emit` call,
gate ids in the order of the recursion.
"""

from __future__ import annotations

import math

from prefixcircuits.core import PrefixCircuit


class _Builder:
    """Accumulates gates over flat wire ids (inputs 0..n-1, gate g -> n+g)."""

    def __init__(self, n: int):
        self.n = n
        self.lefts: list[int] = []
        self.rights: list[int] = []
        self.levels: list[int] = []

    def level_of(self, w: int) -> int:
        return 0 if w < self.n else self.levels[w - self.n]

    def emit(self, left: int, right: int, level: int | None = None) -> int:
        if level is None:
            level = max(self.level_of(left), self.level_of(right)) + 1
        self.lefts.append(left)
        self.rights.append(right)
        self.levels.append(level)
        return self.n + len(self.lefts) - 1

    def max_level(self) -> int:
        return max(self.levels, default=0)

    def circuit(self, outs: list[int]) -> PrefixCircuit:
        return PrefixCircuit.from_arrays(
            self.n, self.lefts, self.rights, self.levels, outs
        )


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")


def serial(n: int) -> PrefixCircuit:
    """Chain y(i) = y(i-1) o x(i); size n-1, depth n-1."""
    _check_n(n)
    b = _Builder(n)
    outs = [0]
    for i in range(1, n):
        outs.append(b.emit(outs[-1], i))
    return b.circuit(outs)


def sklansky(n: int) -> PrefixCircuit:
    """Divide and conquer with a full fan-out merge; depth ceil(log2 n)."""
    _check_n(n)
    b = _Builder(n)

    def rec(wires: list[int]) -> list[int]:
        m = len(wires)
        if m == 1:
            return wires
        half = (m + 1) // 2
        left = rec(wires[:half])
        right = rec(wires[half:])
        return left + [b.emit(left[-1], w) for w in right]

    return b.circuit(rec(list(range(n))))


def kogge_stone(n: int) -> PrefixCircuit:
    """All prefixes via doubling strides; for n = 2^k: size nk - n + 1."""
    _check_n(n)
    b = _Builder(n)
    cur = list(range(n))
    d = 1
    while d < n:
        cur = [cur[i] if i < d else b.emit(cur[i - d], cur[i]) for i in range(n)]
        d *= 2
    return b.circuit(cur)


def _pair_recurse(b: _Builder, wires: list[int], rec, fix_after: bool) -> list[int]:
    """Pair adjacent wires, prefix the pair sums with `rec`, fix up the rest.

    Each even position j >= 2 (except the last of an odd count, which the
    recursion already covers) combines the prefix of its predecessor pair
    with its own input.  With `fix_after` every fix-up gate sits on one
    level after the whole recursion; otherwise levels are tight.
    """
    m = len(wires)
    if m == 1:
        return wires
    paired = [b.emit(wires[j], wires[j + 1]) for j in range(0, m - 1, 2)]
    if m % 2:
        paired.append(wires[-1])
    z = rec(paired)
    fix_level = b.max_level() + 1 if fix_after else None
    return [wires[0]] + [
        z[j // 2] if j % 2 or j == m - 1
        else b.emit(z[j // 2 - 1], wires[j], fix_level)
        for j in range(1, m)
    ]


def brent_kung(n: int) -> PrefixCircuit:
    """Pair, recurse on pair sums, then one fix-up level for even positions.

    The fix-up gates are scheduled on a single level after the whole
    recursion, so for n = 2^k the declared depth is 2k - 1 and the size is
    2n - k - 2.
    """
    _check_n(n)
    b = _Builder(n)

    def rec(wires: list[int]) -> list[int]:
        return _pair_recurse(b, wires, rec, fix_after=True)

    return b.circuit(rec(list(range(n))))


def ladner_fischer(n: int, k: int) -> PrefixCircuit:
    """The depth/size trade-off family; k extra levels halve the size overhead.

    k = 0 splits into halves (left half one variant deeper, right half
    recursive) and merges with a full fan-out level; k >= 1 is the
    Brent-Kung step (pair, recurse at k - 1 on the pair sums, fix up even
    positions).  Levels are tight, so LF(8, 0) has depth 3.
    """
    _check_n(n)
    kmax = math.ceil(math.log2(n)) if n > 1 else 0
    if not 0 <= k <= kmax:
        raise ValueError(f"k={k} out of range for n={n} (0 <= k <= {kmax})")
    b = _Builder(n)

    def rec(wires: list[int], k: int) -> list[int]:
        m = len(wires)
        if m == 1:
            return wires
        if k == 0:
            half = (m + 1) // 2
            left = rec(wires[:half], 1 if half > 1 else 0)
            right = rec(wires[half:], 0)
            return left + [b.emit(left[-1], w) for w in right]
        return _pair_recurse(b, wires, lambda w: rec(w, k - 1), fix_after=False)

    return b.circuit(rec(list(range(n)), k))
