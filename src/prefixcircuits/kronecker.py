"""Blocked zero-deficiency prefix circuits with bounded fan-out.

Construction (for block size s >= 2):

* Layer 1 partitions the n inputs into ``b = ceil(n/s)`` blocks of size s
  (last block ``n mod s`` when nonzero) and runs a serial prefix inside
  each block, all blocks in parallel (levels 1..s-1).
* Layer 2 combines the block totals ``w_0..w_{b-2}`` (every block except
  the last) into running prefixes ``z_i`` with a serial chain, one level
  per gate.
* Layer 3 is a single level: ``z_{i-1}`` finalizes every remaining partial
  prefix of block i (all s-1 non-final positions of a full block; every
  position of the last block).

When n is an exact power of s, the circuit is built for n-1 and one final
gate attaches the last input, which caps the fan-out of the last boundary
wire at s.  The result is zero-deficiency (size + depth = 2n - 2) with
maximum fan-out <= s, for every n >= 2 and s >= 2.  It holds level by
level of the recursion: layer 1 has n - b gates on s - 1 levels, layer 3
has n - s - b + 2 gates on one, and a zero-deficiency middle on b - 1
inputs has size + depth 2b - 4, so the level totals (n - b) + (n - s - b + 2)
+ (2b - 4) + (s - 1) + 1 = 2n - 2; a power of s adds one gate and one level
to the n - 1 build's 2(n - 1) - 2.

Every wire id is a closed form in the column c (gate g is wire n + g).
Layer 1's gate in column c, for c mod s != 0, is wire ``n - 1 + c - c//s``;
``partial[c]`` is that wire, or c at a block start.  The middle circuit
reads the full blocks' totals ``partial[s-1 : s(b-1) : s]`` and numbers its
gates from ``2n - b``; layer 3's gates follow, one per column from s on
other than those totals.  The outputs are ``partial`` with the middle's
outputs written over the totals and layer 3's gates over their columns.
A power of s moves each gate of the n - 1 build one wire up, w + (w >= n - 1).

Chaining layer 2 is what keeps every wire's fan-out within s: feeding the
block totals back through the blocked construction itself re-uses each
boundary prefix at every nesting level, pushing fan-out above s by up to
s-1 per level (measurably so from n = 11 at s = 2).  The price is depth:
the built circuit has depth s + ceil(n/s) - 2 (see :func:`circuit_depth`).
:func:`reblocked_circuit` builds the other member of the family, with
layer 2 the same construction applied to the block totals, one array
recursion; its depth is :func:`kronecker_depth`

    D(n) = n - 1                 for n <= s
    D(n) = 1 + D(n - 1)          for n an exact power of s
    D(n) = s + D(ceil(n/s) - 1)  otherwise

which stays below ``s * ceil(log_s n) - 1`` and is the quantity the
block-size dynamic program optimizes.  It is zero-deficiency too, and
within each level no wire feeds more than s gates (the abstract's
"constant fan-out per level"; ``PAPER.md`` holds only the abstract, so
this per-level reading is an inference).  The chained build agrees with
the recursion value exactly while the chain in layer 2 is no longer than a
serial base case would be (``kronecker_depth(m, s) == m - 1`` for the
middle size m); beyond that its depth exceeds the recursion value.

No depth is memoized: :func:`circuit_depth` is a closed form and
:func:`kronecker_depth` is one loop over the size map n -> ceil(n/s) - 1;
the module holds no process-wide state.  A non-integer parameter raises a
ValueError naming it; the CLI formats the results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PrefixCircuit, _as_int


def _is_power_of(n: int, s: int) -> bool:
    """True iff n = s**k for some k >= 1; callers pass n > s >= 2."""
    while n % s == 0:
        n //= s
    return n == 1


def _check_params(n: int, s: int) -> tuple:
    """(n, s) as plain ints; ValueError unless they are integers, n >= 1, s >= 2."""
    if type(n) is not int or type(s) is not int:
        n, s = _as_int("n", n), _as_int("s", s)
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 2:
        raise ValueError("block size s must be >= 2")
    return n, s


def kronecker_circuit(n: int, s: int) -> PrefixCircuit:
    """Build the blocked zero-deficiency circuit for n inputs, block size s.

    Layer 2 is the serial chain, which keeps every wire's fan-out within s;
    :func:`reblocked_circuit` trades that for depth kronecker_depth(n, s).
    """
    n, s = _check_params(n, s)
    return PrefixCircuit.from_arrays(n, *_build_arrays(n, s))


def reblocked_circuit(n: int, s: int) -> PrefixCircuit:
    """Build the fully re-blocked circuit: layer 2 is this construction again.

    Zero-deficiency with depth kronecker_depth(n, s) and at most s gates per
    level reading any one wire (the per-level reading of the abstract's
    fan-out claim, an inference: ``PAPER.md`` holds only the abstract);
    its global fan-out exceeds s once the recursion nests (3 at (11, 2)).
    """
    n, s = _check_params(n, s)

    def middle(m):
        return _build_arrays(m, s, middle)

    return PrefixCircuit.from_arrays(n, *_build_arrays(n, s, middle))


def _chain(m: int):
    """Arrays (lefts, rights, levels, outs) of the serial chain on m inputs."""
    ids = np.arange(m - 1, dtype=np.int64)
    outs = np.concatenate(([0], m + ids))
    return outs[:-1], ids + 1, ids + 1, outs


def _build_arrays(n: int, s: int, middle=_chain):
    """Arrays of the blocked circuit; `middle(m)` gives the arrays of layer 2.

    Wire ids are closed forms in the column (see the module docstring).
    """
    if n <= s:
        return _chain(n)
    if _is_power_of(n, s):  # the build for n - 1, gates one wire up, + 1 gate
        lefts, rights, levels, outs = _build_arrays(n - 1, s, middle)
        lefts, rights, outs = (a + (a >= n - 1) for a in (lefts, rights, outs))
        return (np.append(lefts, outs[-1]), np.append(rights, n - 1),
                np.append(levels, levels.max() + 1), np.append(outs, n + len(lefts)))

    b = -(-n // s)
    cols = np.arange(n, dtype=np.int64)
    pos = cols % s
    partial = np.where(pos == 0, cols, n - 1 + cols - cols // s)
    l1 = cols[pos != 0]  # layer 1: serial inside each block
    totals = slice(s - 1, s * (b - 1), s)  # the full blocks' last columns
    mid_l, mid_r, mid_lv, mid_o = middle(b - 1)  # layer 2, over the totals
    g3 = 2 * n - b + len(mid_l)  # layer 3's first gate id
    wire = np.concatenate((partial[totals], np.arange(2 * n - b, g3)))
    z = wire[mid_o]
    c3 = np.delete(cols[s:], slice(s - 1, s * (b - 2), s))  # layer 3's columns
    outs = partial.copy()
    outs[totals] = z
    outs[c3] = np.arange(g3, g3 + len(c3))
    lefts = np.concatenate((partial[l1 - 1], wire[mid_l], z[c3 // s - 1]))
    rights = np.concatenate((l1, wire[mid_r], partial[c3]))
    levels = np.concatenate((pos[pos != 0], s - 1 + mid_lv,
                             np.full(len(c3), s + mid_lv.max(initial=0))))
    return lefts, rights, levels, outs


def circuit_depth(n: int, s: int) -> int:
    """Depth of the circuit :func:`kronecker_circuit` builds, in closed form."""
    n, s = _check_params(n, s)
    if n <= s:
        return n - 1
    # a power of s is the build for n - 1 (same ceil(n/s)) plus one level
    return _is_power_of(n, s) + s + -(-n // s) - 2


def kronecker_depth(n: int, s: int) -> int:
    """Depth of the fully re-blocked recursion (the family's depth potential).

    One loop over the size map: a power of s costs one level and steps to
    n - 1, any other n > s costs s levels and steps to ceil(n/s) - 1, and
    the serial base adds n - 1.  Bounded by ``s * ceil(log_s n) - 1``;
    minimized over s by :func:`min_depth_table`.  :func:`reblocked_circuit`
    has this depth; :func:`kronecker_circuit` matches it exactly whenever
    the middle layer is small enough that re-blocking it would degenerate
    to the same chain (``kronecker_depth(ceil(n/s)-1, s) == ceil(n/s) - 2``);
    see the module docstring for why that builder chains the middle layer.
    """
    if type(n) is not int or type(s) is not int or n < 1 or s < 2:  # hot: no call
        n, s = _check_params(n, s)
    depth = 0
    while n > s:
        # the inline n % s test skips a call for most n (about a tenth of
        # criterion 4's 1.5M-call sweep); _is_power_of makes the same test
        if n % s == 0 and _is_power_of(n, s):
            depth += 1
            n -= 1
        else:
            depth += s
            n = -(-n // s) - 1
    return depth + n - 1


def kronecker_depth_bound(n: int, s: int) -> int:
    """The closed-form cap s * ceil(log_s n) - 1 on kronecker_depth."""
    n, s = _check_params(n, s)
    if n == 1:
        return 0
    k = 1
    p = s
    while p < n:
        p *= s
        k += 1
    return s * k - 1


# -- arithmetic edge predicate ------------------------------------------------
#
# Grid view: after level k, column c holds the latest partial value whose
# span ends at input c.  An edge (k, src) -> (k+1, dst) exists iff the gate
# scheduled at level k+1 in column dst reads the value held at column src:
# its left operand's column, or dst itself.  Both the scalar predicate and
# the per-level lister read the gates of a level from `_level_gates`, the
# builder's level case split in O(log n) arithmetic, without materializing
# the circuit.


def _level_gates(n: int, s: int, level: int):
    """(cols, left) for the gates at level + 1 of kronecker_circuit(n, s).

    `cols` is a range of candidate destination columns; `left(c)` is the
    column of the left operand of the gate in column c, or None where c has
    no gate.  Out-of-range levels (every level when n == 1) give no columns.
    The blocked depth D is worked out here rather than by circuit_depth, so
    a call walks the case split once; parameters are checked by the callers.
    """
    lv = level + 1  # level of the gates
    if level < 0:
        return range(0), None
    if n <= s:  # the serial chain, depth n - 1
        return (range(lv, lv + 1) if lv < n else range(0)), lambda c: c - 1
    D = s + -(-n // s) - 2
    if _is_power_of(n, s):  # the build for n - 1 (depth D), then one gate
        if lv <= D:
            return _level_gates(n - 1, s, level)
        return (range(n - 1, n) if lv == D + 1 else range(0)), lambda c: c - 1
    if lv <= s - 1:  # in-block serial
        return range(lv, n, s), lambda c: c - 1
    if lv < D:  # middle chain gate j at column (j+1)s - 1
        col = (lv - s + 2) * s - 1
        return range(col, col + 1), lambda c: c - s
    if lv > D:
        return range(0), None
    # final layer: every column after block 0 except the chained totals
    last = s * (-(-n // s) - 1)
    return range(s, n), lambda c: (
        None if c % s == s - 1 and c < last else c // s * s - 1)


def edge_predicate(n: int, s: int, level: int, src_node: int, dst_node: int) -> bool:
    """True iff the gate at level + 1 in column `dst_node` reads column `src_node`.

    O(log n) arithmetic on kronecker_circuit(n, s); agrees with level_edges.
    """
    if not (type(n) is type(s) is type(level) is type(src_node) is type(dst_node)
            is int and n >= 1 and s >= 2):  # hot: no call for plain ints
        n, s = _check_params(n, s)
        level, src_node, dst_node = (_as_int(name, x) for name, x in (
            ("level", level), ("src_node", src_node), ("dst_node", dst_node)))
    cols, left = _level_gates(n, s, level)
    if dst_node not in cols:
        return False
    src = left(dst_node)
    return src is not None and src_node in (src, dst_node)


def level_edges(n: int, s: int, level: int) -> list:
    """All grid edges (src, dst) from `level` into gates at level + 1."""
    n, s, level = *_check_params(n, s), _as_int("level", level)
    cols, left = _level_gates(n, s, level)
    edges = []
    for c in cols:
        src = left(c)
        if src is not None:
            edges += ((src, c), (c, c))
    return edges


# -- minimum-depth dynamic program -------------------------------------------


@dataclass(frozen=True)
class DepthTable:
    """Per-n minimum of kronecker_depth over the block size s."""

    entries: tuple  # entries[n] = (min_depth, best_s) for n >= 1; entries[0] is None


def min_depth_table(max_n: int) -> DepthTable:
    """Tabulate min over s in [2, max(2, n//2)] of kronecker_depth(n, s).

    Ties break toward the smaller s (smaller fan-out at equal depth).
    kronecker_depth(n, s) >= s for n > s, so the scan stops once s reaches
    the best depth found.
    """
    max_n = _as_int("max_n", max_n)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    entries = [None, (0, 2)]
    for n in range(2, max_n + 1):
        best = (n - 1, 2) if n <= 2 else (kronecker_depth(n, 2), 2)
        for s in range(3, max(2, n // 2) + 1):
            if s >= best[0]:
                break
            d = kronecker_depth(n, s)
            if d < best[0]:
                best = (d, s)
        entries.append(best)
    return DepthTable(tuple(entries))
