"""Baseline prefix-circuit generators: serial chain and the classic networks.

All generators emit gates in topological order over flat wire ids and
declare levels.  Serial, Sklansky, Kogge-Stone, and Ladner-Fischer use the
tight schedule (each gate one level after its latest operand).  Brent-Kung
declares its three-phase schedule (pair level, recursion, one fix-up level
after the recursion), so its depth reads 2*log2(n) - 1 at powers of two.

Each network is built a whole array at a time: Kogge-Stone one stride at
a time, Sklansky, Brent-Kung and Ladner-Fischer one recursion depth at a
time in one shared emitter (:func:`_divide_and_conquer`), and the serial
chain in one pass.  Gate ids still follow the recursion order of the
one-gate-per-call list builders (kept as the test reference in
tests/classic_reference.py): a node's pair gates, then its children's
gates, left child first, then its merge or fix-up gates.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PrefixCircuit, _as_int
from .kronecker import _chain


def _check_n(n: int) -> int:
    n = _as_int("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def _divide_and_conquer(n: int, k: int, left_k: int, fix_after: bool = False):
    """Arrays (lefts, rights, levels, outs) of the recursion rec(n columns, k).

    A node on m >= 2 columns with k == 0 splits them into halves of
    ceil(m/2) and floor(m/2) columns, recurses on the left half at `left_k`
    and on the right half at 0, and merges: the left half's last prefix
    combines with every prefix of the right half.  A node with k >= 1 pairs
    adjacent columns, recurses at k - 1 on the pair sums (and on the last
    column when m is odd), and fixes up every even column j >= 2 but the
    last by combining the prefix up to j - 1 with column j.  Levels are
    tight, except that with `fix_after` (a chain of pair nodes only) each
    node's fix-up gates sit one level above every gate emitted before them.

    Nodes of one recursion depth and one (size, k) are batched as the rows
    of a column grid, so that a node's gates are slices of its row.  The
    top-down pass walks the depths: it gives each node the wire id just past
    its last gate (from the gate counts of the subtrees), writes the pair
    gates, and records the merge and fix-up gates.  The bottom-up pass then
    writes those from the per-column wires `cur`, deepest depth first.
    """
    counts: dict = {}

    def count(m: int, k: int) -> int:
        """Gates of rec(m columns, k)."""
        if m < 2:
            return 0
        if (m, k) not in counts:
            if k == 0:
                half = (m + 1) // 2
                c = count(half, left_k) + count(m - half, 0) + m - half
            else:
                c = 2 * (m // 2) - 1 + count(m - m // 2, k - 1)
            counts[m, k] = c
        return counts[m, k]

    size = n + count(n, k)  # wires: n inputs, then the gates
    lefts = np.empty(size, dtype=np.int64)
    rights = np.empty(size, dtype=np.int64)
    levels = np.zeros(size, dtype=np.int64)
    cur = np.arange(n, dtype=np.int64)  # column -> wire carrying its prefix so far
    span = np.arange(n, dtype=np.int64)

    def gates(src, dst, wires, level=None):
        """Gate wires[i] = cur[src[i]] o cur[dst[i]], which then replaces cur[dst[i]]."""
        # src and dst are strided views of a column grid, which fancy indexing
        # reads slowly: dst, read and written, is made compact, src is take()n
        dst = np.ascontiguousarray(dst)
        a, b = cur.take(src), cur[dst]
        lefts[wires] = a
        rights[wires] = b
        if level is None:
            level = levels[b]
            np.maximum(level, levels[a], out=level)
            level += 1
        levels[wires] = level
        cur[dst] = wires

    # (size, k) -> [(column grid with one row per node, column of the wire
    # ids just past each node's gates)]
    batches = {(n, k): [(span[None, :], np.array([[size]]))]} if n > 1 else {}
    later = []  # per depth: the (src, dst, wires) of its merge and fix-up gates
    while batches:
        depth, grown = [], {}
        for (m, k), parts in batches.items():
            cols, end = parts[0] if len(parts) == 1 else (
                np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
            half = m // 2  # the right half, or the number of pairs
            if k == 0:
                end = end - half  # past the children's gates
                depth.append((cols[:, m - half - 1:m - half], cols[:, m - half:],
                              end + span[:half]))
                children = (((m - half, left_k), cols[:, :m - half], end - count(half, 0)),
                            ((half, 0), cols[:, m - half:], end))
            else:
                gates(cols[:, 0:2 * half:2], cols[:, 1:2 * half:2],
                      end - count(m, k) + span[:half])
                end = end - (half - 1)
                if half > 1:
                    depth.append((cols[:, 1:2 * half - 2:2], cols[:, 2:2 * half - 1:2],
                                  end + span[:half - 1]))
                odd = cols[:, 1::2] if m % 2 == 0 else np.concatenate(
                    (cols[:, 1::2], cols[:, -1:]), axis=1)
                children = (((m - half, k - 1), odd, end),)
            for key, c, e in children:
                if key[0] > 1:
                    grown.setdefault(key, []).append((c, e))
        later.append(depth)
        batches = grown
    # with fix_after each depth's fix-ups go one level above all gates before
    # them: at first the pair gates, which are all that is written so far
    top = int(levels.max()) if fix_after else None
    for depth in reversed(later):
        for plan in depth:
            if fix_after:
                top += 1
            gates(*plan, top)
    return lefts[n:], rights[n:], levels[n:], cur


def serial(n: int) -> PrefixCircuit:
    """Chain y(i) = y(i-1) o x(i); size n-1, depth n-1."""
    n = _check_n(n)
    return PrefixCircuit.from_arrays(n, *_chain(n))


def sklansky(n: int) -> PrefixCircuit:
    """Divide and conquer with a full fan-out merge; depth ceil(log2 n)."""
    n = _check_n(n)
    return PrefixCircuit.from_arrays(n, *_divide_and_conquer(n, 0, 0))


def kogge_stone(n: int) -> PrefixCircuit:
    """All prefixes via doubling strides; for n = 2^k: size nk - n + 1."""
    n = _check_n(n)
    strides = [1 << j for j in range(max(n - 1, 0).bit_length())]
    size = n + sum(n - d for d in strides)
    lefts = np.empty(size, dtype=np.int64)
    rights = np.empty(size, dtype=np.int64)
    levels = np.empty(size, dtype=np.int64)
    cur = np.arange(n, dtype=np.int64)
    w = n
    for level, d in enumerate(strides, 1):
        lefts[w:w + n - d] = cur[:n - d]
        rights[w:w + n - d] = cur[d:]
        levels[w:w + n - d] = level
        cur[d:] = np.arange(w, w + n - d)
        w += n - d
    return PrefixCircuit.from_arrays(n, lefts[n:], rights[n:], levels[n:], cur)


def brent_kung(n: int) -> PrefixCircuit:
    """Pair, recurse on pair sums, then one fix-up level for even positions.

    The fix-up gates are scheduled on a single level after the whole
    recursion, so for n = 2^k the declared depth is 2k - 1 and the size is
    2n - k - 2.
    """
    n = _check_n(n)
    # k = n: every node pairs, down to a single column
    return PrefixCircuit.from_arrays(n, *_divide_and_conquer(n, n, 0, fix_after=True))


def ladner_fischer(n: int, k: int) -> PrefixCircuit:
    """The depth/size trade-off family; k extra levels halve the size overhead.

    k = 0 splits into halves (left half one variant deeper, right half
    recursive) and merges with a full fan-out level; k >= 1 is the
    Brent-Kung step (pair, recurse at k - 1 on the pair sums, fix up even
    positions).  Levels are tight, so LF(8, 0) has depth 3.
    """
    n = _check_n(n)
    k = _as_int("k", k)
    kmax = math.ceil(math.log2(n)) if n > 1 else 0
    if not 0 <= k <= kmax:
        raise ValueError(f"k={k} out of range for n={n} (0 <= k <= {kmax})")
    return PrefixCircuit.from_arrays(n, *_divide_and_conquer(n, k, 1))

