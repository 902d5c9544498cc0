"""The blocked-family builder that kronecker.py used before it numbered the
wires in closed form, kept verbatim as the reference the differential tests
in test_kronecker.py compare against: a rank table for layer 1's gate ids, a
fresh `outs`, and one `np.where` per array to shift gate ids past a new
last input.
"""

from __future__ import annotations

import numpy as np

from prefixcircuits.kronecker import _chain


def is_power(n: int, s: int) -> bool:
    """True iff n = s**k for some k >= 1, by multiplying up from s."""
    p = s
    while p < n:
        p *= s
    return p == n


def chained_arrays(n: int, s: int):
    """Arrays (lefts, rights, levels, outs) of kronecker_circuit(n, s)."""
    return _build_arrays(n, s)


def reblocked_arrays(n: int, s: int):
    """Arrays (lefts, rights, levels, outs) of reblocked_circuit(n, s)."""

    def middle(m):
        return _build_arrays(m, s, middle)

    return _build_arrays(n, s, middle)


def _attach_last_input(n: int, sub):
    """Arrays for n inputs from `sub`, the arrays for n - 1 inputs.

    One gate on a new level combines the last output with input n - 1.
    """
    lefts, rights, levels, outs = sub
    # inputs gain one slot: gate ids shift from (n-1)+g to n+g
    lefts = np.where(lefts >= n - 1, lefts + 1, lefts)
    rights = np.where(rights >= n - 1, rights + 1, rights)
    outs = np.where(outs >= n - 1, outs + 1, outs)
    depth = levels.max() if len(levels) else 0
    lefts = np.append(lefts, outs[-1])
    rights = np.append(rights, n - 1)
    levels = np.append(levels, depth + 1)
    outs = np.append(outs, n + len(lefts) - 1)
    return lefts, rights, levels, outs


def _build_arrays(n: int, s: int, middle=_chain):
    """Arrays of the blocked circuit; `middle(m)` gives the arrays of layer 2."""
    if n <= s:
        return _chain(n)
    if is_power(n, s):
        return _attach_last_input(n, _build_arrays(n - 1, s, middle))

    b = -(-n // s)
    m = b - 1
    cols = np.arange(n, dtype=np.int64)

    # layer 1: serial inside blocks; one gate per non-block-start column
    l1_cols = cols[cols % s != 0]
    g1 = len(l1_cols)  # n - b
    rank = np.full(n, -1, dtype=np.int64)
    rank[l1_cols] = np.arange(g1)
    partial = np.where(cols % s == 0, cols, n + rank)
    l1_left = partial[l1_cols - 1]
    l1_right = l1_cols
    l1_level = l1_cols % s

    # layer 2: the middle circuit over block totals w_0..w_{m-1}, its
    # inputs mapped to the totals and its gates numbered after layer 1
    w = partial[np.minimum(np.arange(b, dtype=np.int64) * s + s - 1, n - 1)]
    mid_l, mid_r, mid_lv, mid_o = middle(m)
    g2 = len(mid_l)
    wire = np.concatenate((w[:m], n + g1 + np.arange(g2, dtype=np.int64)))
    mid_left, mid_right, z = wire[mid_l], wire[mid_r], wire[mid_o]
    mid_level = (s - 1) + mid_lv
    depth = s + (int(mid_lv.max()) if g2 else 0)

    # layer 3: one level finalizing everything after block 0
    mask3 = (cols >= s) & ((cols % s != s - 1) | (cols >= s * (b - 1)))
    c3 = cols[mask3]
    l3_left = z[c3 // s - 1]
    l3_right = partial[c3]
    l3_level = np.full(len(c3), depth, dtype=np.int64)
    l3_ids = n + g1 + g2 + np.arange(len(c3), dtype=np.int64)

    outs = np.empty(n, dtype=np.int64)
    outs[: min(s, n)] = partial[: min(s, n)]
    outs[np.arange(s - 1, s * (b - 1), s)] = z
    outs[c3] = l3_ids

    lefts = np.concatenate((l1_left, mid_left, l3_left))
    rights = np.concatenate((l1_right, mid_right, l3_right))
    levels = np.concatenate((l1_level, mid_level, l3_level))
    return lefts, rights, levels, outs
