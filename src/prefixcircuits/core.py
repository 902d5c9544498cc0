"""Prefix-circuit DAG representation, evaluation, validation, and metrics.

A prefix circuit over n inputs is a DAG of binary-operator nodes.  Gate g
computes ``value(left) o value(right)`` for an associative operator ``o``;
operand order is preserved everywhere, so non-commutative operators are
supported.

A circuit is four integer arrays over flat wire ids, ``0..n-1`` for the
inputs and ``n + g`` for the output of gate ``g``: ``lefts[g]`` and
``rights[g]`` are gate g's operands, ``levels[g]`` its level, and
``outs[i]`` the wire that carries the prefix ``x(0) o x(1) o ... o x(i)``.
:meth:`PrefixCircuit.from_arrays` is the one constructor.  Gates are stored
in topological order (every operand refers to an input or an earlier gate).
Levels are declared by generators and only checked here, so that a
generator's schedule survives round-trips; the depth metric is the largest
declared level.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class CircuitMetrics:
    size: int
    depth: int
    max_fanout: int
    deficiency: int  # size + depth - (2n - 2); zero meets the lower bound
    valid: bool


def _as_int(name: str, x, error=ValueError) -> int:
    """x as a plain int; `error` naming `name` for a bool or a non-integer."""
    if not isinstance(x, bool):
        with suppress(TypeError):
            return operator.index(x)  # numpy integers too, but not numpy bools
    raise error(f"{name}: expected an integer, got {x!r}")


def _int_array(name: str, a, error=ValueError) -> np.ndarray:
    """a as int64 (itself if it is); `error` naming `name` if non-empty of another
    dtype, or unsigned with a value past the int64 maximum (astype would wrap it)."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{name}: expected integers, got dtype {a.dtype}")
    if a.dtype == np.uint64 and a.size and a.max() > _INT64_MAX:
        raise error(f"{name}: value {a.max()} is above the int64 maximum {_INT64_MAX}")
    return a.astype(np.int64, copy=False)


class CircuitStructureError(ValueError):
    """Raised for malformed circuits; names the offending gate, output or array."""


class PrefixCircuit:
    """Immutable leveled DAG of binary gates with designated prefix outputs."""

    __slots__ = ("n", "_lefts", "_rights", "_levels", "_outs")

    @classmethod
    def from_arrays(cls, n, lefts, rights, levels, outs) -> "PrefixCircuit":
        """Construct from flat wire-id arrays (see the module docstring).

        Raises CircuitStructureError for a malformed circuit, including a
        non-1-D array, unequal lengths, or an n or values that are not integers.
        The int64 arrays kept (an int64 input itself) turn read-only once
        checked; a caller's view still changes if its base is written.
        """
        n = _as_int("n", n, CircuitStructureError)
        if n < 1:
            raise CircuitStructureError("circuit needs at least one input")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        for name, a in (("lefts", lefts), ("rights", rights), ("levels", levels),
                        ("outs", outs)):
            a = np.asarray(a)
            if a.ndim != 1:
                raise CircuitStructureError(f"{name}: expected a 1-D array")
            object.__setattr__(self, "_" + name, _int_array(name, a, CircuitStructureError))
        self._check_structure()
        for a in (self._lefts, self._rights, self._levels, self._outs):
            a.flags.writeable = False
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PrefixCircuit is immutable")

    def _check_structure(self):
        n, G = self.n, self.size
        if len(self._outs) != n:
            raise CircuitStructureError(f"expected {n} outputs, got {len(self._outs)}")
        for name, a in (("rights", self._rights), ("levels", self._levels)):
            if len(a) != G:
                raise CircuitStructureError(f"{name}: expected {G} entries, got {len(a)}")
        levels = self._levels
        if G and levels.min() < 1:
            g = int(np.argmax(levels < 1))
            raise CircuitStructureError(f"gate {g}: level must be >= 1")
        # one block of gates at a time, so the temporaries stay O(_BLOCK)
        wire_level = np.concatenate((np.zeros(n, dtype=np.int64), levels))
        for lo in range(0, G, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            own_wire = np.arange(n + lo, n + min(lo + _BLOCK, G), dtype=np.uint64)
            for side in (self._lefts[block], self._rights[block]):
                if (side.view(np.uint64) >= own_wire).any() or (
                        wire_level[side] >= levels[block]).any():
                    self._operand_fault(wire_level)
        outs = self._outs
        if (outs.view(np.uint64) >= n + G).any():
            i = int(np.argmax((outs < 0) | (outs >= n + G)))
            raise CircuitStructureError(f"output {i}: dangling wire {int(outs[i])}")

    def _operand_fault(self, wire_level):
        """Raise for the first operand fault by kind, over whole arrays."""
        n, G, levels = self.n, self.size, self._levels
        # an operand must be a wire below its gate's own; as unsigned, a
        # negative wire is huge, so one compare finds every fault of order
        own_wire = np.arange(n, n + G, dtype=np.uint64)
        for side in (self._lefts, self._rights):
            late = side.view(np.uint64) >= own_wire
            if late.any():
                dangling = (side < 0) | (side >= n + G)
                g = int(np.argmax(dangling if dangling.any() else late))
                if dangling[g]:
                    raise CircuitStructureError(f"gate {g}: dangling wire {int(side[g])}")
                raise CircuitStructureError(
                    f"gate {g}: operand gate {int(side[g]) - n} does not precede it"
                )
            bad = wire_level[side] >= levels
            if bad.any():
                g = int(np.argmax(bad))
                raise CircuitStructureError(
                    f"gate {g}: operand gate {int(side[g]) - n} violates level order"
                )

    @property
    def size(self) -> int:
        return len(self._lefts)

    def __eq__(self, other):
        return (
            isinstance(other, PrefixCircuit)
            and self.n == other.n
            and np.array_equal(self._lefts, other._lefts)
            and np.array_equal(self._rights, other._rights)
            and np.array_equal(self._levels, other._levels)
            and np.array_equal(self._outs, other._outs)
        )

    def __repr__(self):
        return f"PrefixCircuit(n={self.n}, size={self.size})"


def evaluate(circuit: PrefixCircuit, inputs: Sequence, op: Callable):
    """Evaluate over arbitrary values with an associative binary operator.

    Associativity is the caller's obligation; operand order is preserved
    (left operand is always the lower-index partial prefix).
    """
    n = circuit.n
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    vals = list(inputs)
    for l, r in zip(circuit._lefts.tolist(), circuit._rights.tolist()):
        vals.append(op(vals[l], vals[r]))
    return [vals[w] for w in circuit._outs.tolist()]


_CHUNK = 64  # gates per chunk in the first round of _forest_roots
_BLOCK = 1 << 16  # gates per block of the validator's passes over the wire arrays


def _forest_roots(n: int, parent: np.ndarray) -> np.ndarray:
    """Input at the root of each wire's tree, gate g hanging off parent[g].

    Pointer jumping in blocks of _BLOCK gates, in increasing order: as
    pointers only go down, every wire below a block holds its root input.
    In a block, round 1: each gate jumps until its pointer leaves its own
    chunk of _CHUNK consecutive gates.  The gates of a chunk share one
    bound, and each ends on its exit, the first ancestor below the chunk,
    after at most log2(_CHUNK) = 6 passes.  Round 2: the block's exits that
    are gates form a set X closed under the pointers (an exit's pointer is
    its own exit), and plain jumping takes X down to the inputs, the last
    step through the finished lower blocks.  One gather then gives every
    gate of the block its exit's root.

    Work: at most 6G steps in round 1, |X| log2(h) in round 2 for a forest
    of height h, and O(G) for the rest.  A chain has one exit per chunk,
    so it costs about 6G steps where plain jumping costs G log2(h); in a
    bushy forest most gates are exits.  Memory: the root array, an exit
    mask and O(_BLOCK) temporaries, so a block's jumps stay in cache.
    """
    G = len(parent)
    root = np.concatenate((np.arange(n, dtype=np.int64), parent))
    exits = np.zeros(n + G, dtype=bool)
    for lo in range(n, n + G, _BLOCK):
        hi = min(lo + _BLOCK, n + G)
        stop = np.arange(lo - n, hi - n, dtype=np.int64) & -_CHUNK
        stop += n
        a = (root[lo:hi] >= stop).nonzero()[0]
        stop = stop[a]
        a += lo
        while a.size:
            r = root[root[a]]
            root[a] = r
            keep = r >= stop
            a, stop = a[keep], stop[keep]
        exits[root[lo:hi]] = True
        a = exits[lo:hi].nonzero()[0] + lo
        while a.size:
            r = root[root[a]]
            root[a] = r
            a = a[r >= n]
        root[lo:hi] = root[root[lo:hi]]
    return root


def _live_gates(n: int, lefts, rights, outs) -> np.ndarray:
    """Mask of the gates in the union of the output cones.

    Repeatedly peels gates that feed no gate and are not outputs.
    """
    G = len(lefts)
    fan = np.bincount(lefts, minlength=n + G)[n:]
    fan += np.bincount(rights, minlength=n + G)[n:]
    fan += np.bincount(outs, minlength=n + G)[n:]
    live = np.ones(G, dtype=bool)
    slot = np.empty(G, dtype=np.int64)
    sinks = np.flatnonzero(fan == 0)
    while sinks.size:
        live[sinks] = False
        ops = np.concatenate((lefts[sinks], rights[sinks]))
        ops = ops[ops >= n] - n
        np.subtract.at(fan, ops, 1)
        ops = ops[fan[ops] == 0]
        # drop repeats: of the positions written to slot[g], one survives
        k = np.arange(ops.size)
        slot[ops] = k
        sinks = ops[slot[ops] == k]
    return live


def validate_prefix(circuit: PrefixCircuit) -> bool:
    """Check prefix correctness over the free monoid.

    Conceptually this evaluates the circuit with operand i = the singleton
    sequence [i] and sequence concatenation as the operator, then checks
    output i equals [0, 1, ..., i].  Because the free monoid is the most
    general associative structure, success here implies correctness for
    every associative operator.

    Implementation note: runs [a, b) and [c, d) concatenate to a run iff
    b == c, and a non-run never becomes a run again.  A wire carrying a run
    starts at the root input of its left-operand forest and ends one past
    that of its right-operand forest (both found by :func:`_forest_roots`,
    pointer jumping in blocks, in O(G) work for a chain).  Call
    a gate aligned when its left operand's end is its right operand's
    start.  A wire carries a run iff its whole cone is aligned: the first
    misaligned gate of a cone has run operands, so it poisons the wire.  So
    the circuit is valid iff output i's roots give [0, i+1) and no
    misaligned gate is live, i.e. in an output cone (found by peeling).
    """
    n, lefts, rights, outs = circuit.n, circuit._lefts, circuit._rights, circuit._outs
    last = _forest_roots(n, rights)
    if (last[outs] != np.arange(n)).any():
        return False
    left_last = last[lefts]
    del last  # one root array and one gather live at a time, to bound memory
    first = _forest_roots(n, lefts)
    if first[outs].any():
        return False
    misaligned = np.empty(len(lefts), dtype=bool)
    for lo in range(0, len(lefts), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        misaligned[block] = left_last[block] + 1 != first[rights[block]]
    del first, left_last
    if misaligned.any():
        misaligned &= _live_gates(n, lefts, rights, outs)
    return not misaligned.any()


def metrics(circuit: PrefixCircuit, count_outputs: bool = False) -> CircuitMetrics:
    """Size, depth, max fan-out, deficiency, and validity of a circuit.

    Depth is the largest declared gate level (the generator's schedule).
    Fan-out counts operand edges only; pass ``count_outputs=True`` to also
    count each designated circuit output as one outgoing edge.
    """
    size = circuit.size
    depth = int(circuit._levels.max()) if size else 0
    deficiency = size + depth - (2 * circuit.n - 2)
    return CircuitMetrics(size, depth, _max_fanout(circuit, count_outputs),
                          deficiency, validate_prefix(circuit))


def _max_fanout(circuit: PrefixCircuit, count_outputs: bool) -> int:
    """Largest number of edges leaving one wire; see :func:`metrics`."""
    N = circuit.n + circuit.size
    fan = np.bincount(circuit._lefts, minlength=N)
    fan += np.bincount(circuit._rights, minlength=N)
    if count_outputs:
        fan += np.bincount(circuit._outs, minlength=N)
    return int(fan.max()) if len(fan) else 0


def fib_depth_lower_bound(n: int) -> int:
    """Minimum depth any zero-deficiency prefix circuit on n inputs can have.

    Computed as ``min{t : F(t) >= n + 1} - 3`` with the Fibonacci convention
    F(0)=0, F(1)=F(2)=1.  This calibration makes the bound monotone in n and
    tight at small sizes (n=2 -> 1, n=4 -> 2, consistent with the depth-2
    four-input circuit that meets the size+depth lower bound).

    No library function calls it; it stays as the one implementation of
    acceptance criterion 6's depth bound, which the tests check measured
    depths against. `mindepth`'s CSV does not print it, since perfbench
    parses that CSV.
    """
    if _as_int("n", n) < 1:
        raise ValueError("n must be >= 1")
    target = n + 1
    a, b = 0, 1  # F(0), F(1)
    t = 1
    while b < target:
        a, b = b, a + b
        t += 1
    return t - 3
