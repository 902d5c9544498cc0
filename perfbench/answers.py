"""Answers the benchmark checks the library against.

Nothing here calls prefixcircuits. The expected values come from the
constructions' closed forms, from general lower bounds that hold for every
prefix circuit, from a serial fold, and from the recurrences the library
documents, each written out again here.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import accumulate

import numpy as np

P = (1 << 61) - 1  # a prime


def compose(f, g):
    """Composition of affine maps z -> a*z + b mod P: associative, not commutative."""
    return (f[0] * g[0] % P, (f[0] * g[1] + f[1]) % P)


def affine_inputs(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [(rng.randrange(1, P), rng.randrange(P)) for _ in range(n)]


def serial_fold(xs) -> list:
    """y(i) = x(0) o ... o x(i), one product at a time."""
    return list(accumulate(xs, compose))


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def exact_log2(n: int):
    return n.bit_length() - 1 if n & (n - 1) == 0 else None


def is_power(n: int, s: int) -> bool:
    """True iff n = s**k for some k >= 1."""
    p = s
    while p < n:
        p *= s
    return p == n


def kronecker_built_depth(n: int, s: int) -> int:
    """Depth of the blocked circuit: s - 1 in-block levels, a chain over the
    ceil(n/s) - 1 block totals, one finalize level; n = s**k adds one gate."""
    if n == 1:
        return 0
    if n <= s:
        return n - 1
    if is_power(n, s):
        return 1 + kronecker_built_depth(n - 1, s)
    return s + (-(-n // s)) - 2


def min_depth_entries(max_n: int) -> tuple:
    """(min_depth, best_s) per n of the re-blocked recursion, by full scan.

    D(n) = n - 1 for n <= s; 1 + D(n - 1) for n = s**k; s + D(ceil(n/s) - 1)
    otherwise. The minimum is over s in [2, max(2, n // 2)], ties to the
    smaller s; entry 1 is (0, 2) and entry 0 is None.
    """
    memo: dict = {}

    def depth(n, s):
        key = (n, s)
        if key not in memo:
            if n <= s:
                memo[key] = n - 1
            elif is_power(n, s):
                memo[key] = 1 + depth(n - 1, s)
            else:
                memo[key] = s + depth(-(-n // s) - 1, s)
        return memo[key]

    entries = [None, (0, 2)]
    for n in range(2, max_n + 1):
        best = None
        for s in range(2, max(2, n // 2) + 1):
            d = depth(n, s)
            if best is None or d < best[0]:
                best = (d, s)
        entries.append(best)
    return tuple(entries)


def circuit_errors(gen: str, n: int, arg, size: int, depth: int, fanout: int,
                   deficiency: int, fanout_out=None) -> list:
    """Mismatches between one valid circuit's metrics and what must hold.

    Every prefix circuit has size + depth >= 2n - 2 (Snir) and depth >=
    ceil(log2 n); the named generators have closed forms at powers of two.
    """
    errors = []

    def want(field, expected, got):
        if expected != got:
            errors.append(f"{gen}(n={n}, arg={arg}) {field}: "
                          f"expected {expected}, got {got}")

    lg = exact_log2(n)
    want("deficiency", size + depth - (2 * n - 2), deficiency)
    if deficiency < 0:
        errors.append(f"{gen}(n={n}) beats the size+depth bound: {deficiency}")
    if depth < ceil_log2(n):
        errors.append(f"{gen}(n={n}) beats the log-depth bound: {depth}")
    if fanout_out is not None and fanout_out not in (fanout, fanout + 1):
        errors.append(f"{gen}(n={n}) fan-out with outputs {fanout_out} "
                      f"vs without {fanout}")
    if gen == "serial":
        want("size", n - 1, size)
        want("depth", n - 1, depth)
    elif gen in ("sklansky", "kogge_stone"):
        want("depth", ceil_log2(n), depth)
        if lg is not None:
            want("size", n * lg // 2 if gen == "sklansky" else n * lg - n + 1, size)
    elif gen == "brent_kung" and lg is not None and n >= 4:
        want("size", 2 * n - lg - 2, size)
        want("depth", 2 * lg - 1, depth)
    elif gen == "ladner_fischer":
        if arg == 0:
            want("depth", ceil_log2(n), depth)
        if lg is not None and n >= 4:
            want("depth", min(lg + arg, 2 * lg - 2), depth)
    elif gen == "kronecker":
        want("deficiency", 0, deficiency)
        want("depth", kronecker_built_depth(n, arg), depth)
        if fanout > arg:
            errors.append(f"kronecker(n={n}, s={arg}) fan-out {fanout} > s")
    return errors


def grid_edges(n: int, lefts, rights, levels) -> dict:
    """Per level k, the grid edges (src, dst) into the gates at level k + 1.

    Column of a wire = the last input its span covers; a gate in column dst
    reads its left operand's column and its own column.
    """
    col = list(range(n)) + [0] * len(lefts)
    edges = defaultdict(set)
    for g, (left, right, level) in enumerate(zip(lefts.tolist(), rights.tolist(),
                                                 levels.tolist())):
        dst = col[n + g] = col[right]
        edges[level - 1].update(((col[left], dst), (dst, dst)))
    return edges


def splice(n: int, lefts, rights, levels, outs, victim: int) -> tuple:
    """Remove gate `victim` and rewire its consumers to its left operand.

    The result is structurally sound (operands still precede their gates at
    lower levels). It is never a prefix circuit when the victim is an output
    gate: that output then carries the left operand's proper prefix. Nor when
    the original has size + depth = 2n - 2: the splice lowers size by one and
    raises no path's depth, which would put it below Snir's bound.
    """
    G = len(lefts)
    idmap = np.arange(n + G, dtype=np.int64)
    idmap[n + victim + 1:] -= 1
    idmap[n + victim] = idmap[lefts[victim]]
    keep = np.arange(G) != victim
    return n, idmap[lefts[keep]], idmap[rights[keep]], levels[keep], idmap[outs]
