"""Reversible carry-lookahead adder built on the blocked prefix recursion.

Computes ``b <- (a + b) mod 2**n`` in-place over NOT/CNOT/Toffoli gates,
with the per-position carries retained in the ``g`` register (``g[n-1]`` is
the overall carry-out) and every scratch register restored to zero.

Structure, following :func:`.kronecker.reblocked_circuit` level by level:

* ``g[i] <- a[i] AND b[i]`` (one Toffoli layer), then ``b <- a XOR b``
  (CNOT layer), so ``b`` holds the propagate bits.
* Carry recursion on M positions: for a power of s, the recursion on
  M - 1 and one ``L{t} last`` Toffoli; otherwise within-block Toffoli
  chains extend generate spans (block 0's, seeded by the complete carry,
  finishes its block), propagate products of the blocks past the first go
  into fresh ancillas, the recursion completes the totals of every block
  but the last, and one finalize layer completes every other position,
  fanning each block's carry out through CNOT copies so the layer stays
  disjoint.  Scratch products are uncomputed in reverse.
* ``b[i] <- b[i] XOR g[i-1]`` (CNOT layer) turns propagates into sum bits.

A :class:`QuantumCircuit` is its registers and its layers, each step above
being one or more whole parallel layers of :func:`build_adder`.  A circuit
made from :class:`Gate` tuples is split into layers in gate order, and
``.gates`` makes the tuples again from the layers; it is never stored.
:func:`resources`, :func:`netlist` and the simulator take a whole layer at a
time, so :func:`estimate_resources` is ``resources(build_adder(n, s))``.
n and s are checked as in :mod:`.kronecker`, by :func:`verify_adder` too;
the CLI formats the results.

CNOT fan-out copies and the XOR layers carry no Toffoli layer label and do
not count toward Toffoli depth; depth is measured as the longest chain of
Toffolis under data dependence (a gate depends on an earlier one iff one's
target overlaps the other's qubits -- shared controls commute).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import _as_int
from .kronecker import _check_params, _is_power_of

NOT = "NOT"
CNOT = "CNOT"
TOFFOLI = "TOFFOLI"


class Gate(NamedTuple):
    kind: str
    qubits: tuple
    toffoli_layer: Optional[str]


@dataclass(frozen=True)
class AdderResources:
    toffoli_count: int
    toffoli_depth: int
    ancilla_count: int


class LayerOverlapError(ValueError):
    """Two gates in one labeled Toffoli layer touch the same qubit."""


_ARITY = {NOT: 1, CNOT: 2, TOFFOLI: 3}
_LINE = {TOFFOLI: "T %d %d %d\n", CNOT: "CX %d %d\n", NOT: "X %d\n"}  # netlist rows


class _Gates(Sequence):
    """The gates of a layer list, made one at a time in circuit order.  An
    index or a slice makes the whole list first."""

    def __init__(self, layers: list):
        self._layers = layers

    def __len__(self) -> int:
        return sum(len(layer[2]) for layer in self._layers)

    def __iter__(self):
        # tuple.__new__ makes each Gate in C, at half the NamedTuple's cost
        for kind, label, *qs in self._layers:
            yield from map(tuple.__new__, repeat(Gate), zip(
                repeat(kind), zip(*(q.tolist() for q in qs), strict=True), repeat(label)))

    def __getitem__(self, i):
        return list(self)[i]


class QuantumCircuit:
    """Reversible circuit over named qubit registers, held as its layers.

    A layer is ``(kind, label, *qubit_arrays)``: one gate per index of the
    equal-length int64 arrays (controls first, target last).  `gates` is
    split into layers in gate order, a layer ending at a change of kind,
    label or qubit count and before a gate on a qubit it already uses.
    """

    def __init__(self, registers: dict, gates: Iterable[Gate], n: int = 0, s: int = 0):
        self.registers = {name: qs if isinstance(qs, range) else list(qs)
                          for name, qs in registers.items()}
        runs, rows, used, key = [], [], set(), None
        for i, (kind, qs, label) in enumerate(gates):
            if not len(qs):
                raise ValueError(f"gate {i} ({kind}) acts on no qubit")
            if (kind, label, len(qs)) != key or not used.isdisjoint(qs):
                rows, used, key = [], set(), (kind, label, len(qs))
                runs.append((kind, label, rows))
            rows.append(qs)
            used.update(qs)
        self.layers = [(kind, label, *np.array(rows, dtype=np.int64).T)
                       for kind, label, rows in runs]
        self.n, self.s = n, s
        self.n_qubits = max(((max(qs[0], qs[-1]) if isinstance(qs, range) else max(qs)) + 1
                             for qs in self.registers.values() if len(qs)), default=0)

    @classmethod
    def from_layers(cls, registers: dict, layers: list, n: int = 0, s: int = 0):
        """A circuit of the given layers, each ``(kind, label, *qubit_arrays)``."""
        circuit = cls(registers, (), n, s)
        circuit.layers = layers
        return circuit

    @property
    def gates(self) -> _Gates:
        return _Gates(self.layers)


def _check(layers: list, n_qubits: int, disjoint: bool = False):
    """Raise ValueError for a gate of an unknown kind or qubit count, or on a
    qubit outside 0..n_qubits-1, naming the first such gate; with `disjoint`,
    LayerOverlapError for two gates of one label on a shared qubit and
    ValueError for two gates of one unlabelled layer on a shared qubit.
    Whole-array passes clear a good circuit; only a bad one is walked gate
    by gate.
    """
    if not layers:
        return
    qubits = np.concatenate([q for layer in layers for q in layer[2:]])
    if not (all(_ARITY.get(layer[0]) == len(layer) - 2 for layer in layers)
            and 0 <= qubits.min() and qubits.max() < n_qubits):
        for i, (kind, qs, _) in enumerate(_Gates(layers)):
            if _ARITY.get(kind) != len(qs):
                raise ValueError(f"gate {i} ({kind} on {qs}) has {len(qs)} qubits"
                                 if kind in _ARITY else f"unknown gate kind {kind!r}")
            for q in qs:
                if not 0 <= q < n_qubits:
                    raise ValueError(f"gate {i} ({kind} on {tuple(qs)}) uses qubit {q},"
                                     f" outside 0..{n_qubits - 1}")
    if not disjoint:
        return
    # key = group * n_qubits + qubit, a group being a label or an unlabelled
    # layer; the keys come in nearly sorted runs, which a stable sort merges
    # fast.  A gate naming one qubit twice repeats a key too, and passes.
    group: dict = {}
    starts = [group.setdefault((layer[1],) if layer[1] is not None else j, len(group))
              * n_qubits for j, layer in enumerate(layers)]
    keys = qubits + np.repeat(starts, [len(layer[2]) * (len(layer) - 2) for layer in layers])
    keys.sort(kind="stable")
    if not (keys[1:] == keys[:-1]).any():
        return
    seen: dict = {}
    for j, (kind, label, *qs) in enumerate(layers):
        used = seen.setdefault((label,) if label is not None else j, set())
        for gate in zip(*(q.tolist() for q in qs)):
            overlap = used.intersection(gate)
            if overlap and label is None:
                raise ValueError(f"{kind} layer {j} reuses qubits {sorted(overlap)}")
            if overlap:
                raise LayerOverlapError(f"layer {label!r} reuses qubits {sorted(overlap)}")
            used.update(gate)


# -- emission ------------------------------------------------------------------


def build_adder(n: int, s: int) -> QuantumCircuit:
    """The adder as whole parallel layers, the gates of each on distinct
    qubits; level t is level t of ``reblocked_circuit(n, s)``.  A layer's
    label is its Toffoli layer label (``g-init``, ``L{t} chain k``, ``prop
    k``, ``fin``, ``unprop k``, ``last``), None for CNOT layers.  Registers
    are ranges: a, b, g, then the propagate products ``p{t}`` in recursion
    order, then the copy pool z that every level reuses.
    """
    n, s = _check_params(n, s)
    a = np.arange(n)
    b, g = a + n, a + 2 * n
    registers = {"a": range(n), "b": range(n, 2 * n), "g": range(2 * n, 3 * n)}
    layers = [(TOFFOLI, "g-init", a, b, g), (CNOT, None, a, b)]
    free = 3 * n
    pool = 0

    def level(t: int, gq, pq):
        nonlocal free, pool
        M = len(gq)
        if M > s and _is_power_of(M, s):  # the level for M - 1, then one gate
            level(t, gq[:-1], pq[:-1])
            layers.append((TOFFOLI, f"L{t} last", gq[-2:-1], pq[-1:], gq[-1:]))
            return
        # up: within-block generate chains (block 0's chain completes carries)
        for k in range(1, min(s, M)):
            layers.append((TOFFOLI, f"L{t} chain {k}", gq[k - 1:M - 1:s], pq[k::s], gq[k::s]))
        if M <= s:
            return
        # propagate products for blocks j = 1..B-1: chi[k][j-1] is the
        # product over positions 0..k of block j, for k >= 1 in fresh slot
        # (j-1)*(s-1) + k-1; every block but the last is full, so block j
        # has a position k for j <= last[k]
        B = -(-M // s)
        last = [B - 1 - ((B - 1) * s + k >= M) for k in range(s)]
        base = free
        free += M - B - (s - 1)
        registers[f"p{t + 1}"] = range(base, free)
        chi = [pq[s::s]] + [np.arange(base + k - 1, base + k - 1 + (B - 1) * (s - 1), s - 1)
                            for k in range(1, s)]
        props = [(k, chi[k - 1][:last[k]], pq[s + k::s], chi[k][:last[k]])
                 for k in range(1, s)]
        layers.extend((TOFFOLI, f"L{t} prop {k}", *qs) for k, *qs in props)
        top = gq[s - 1:s * (B - 1):s]  # the totals of blocks 0..B-2, all full
        # block j's propagate is chi[s-1][j-1]; block 0's is never read
        level(t + 1, top, np.concatenate((pq[:1], chi[-1][:B - 2])))
        # down: finalize position k of blocks 1..last[k] (at k = s-1 the last
        # block's only: the others' are middle totals), fanning each block's
        # carry out through CNOT copies into the pool so the layer stays disjoint
        copies, fin, used = [], [], 0
        for k in range(s):
            j = slice(B - 2 if k == s - 1 else 0, last[k])  # blocks 1 + j
            ctrl = top[j]
            if k:
                z = np.arange(free + used, free + used + len(ctrl))
                used += len(z)
                copies.append((CNOT, None, ctrl, z))
                ctrl = z
            fin.append((ctrl, chi[k][j], gq[s + k::s][j]))
        pool = max(pool, used)
        layers.extend(copies)
        layers.append((TOFFOLI, f"L{t} fin", *map(np.concatenate, zip(*fin))))
        layers.extend(reversed(copies))
        # uncompute propagate products, newest first
        layers.extend((TOFFOLI, f"L{t} unprop {k}", *qs)
                      for k, *qs in reversed(props))

    level(0, g, b)
    layers.append((CNOT, None, g[: n - 1], b[1:]))  # sums
    if pool:
        registers["z"] = range(free, free + pool)
    return QuantumCircuit.from_layers(
        registers, [layer for layer in layers if len(layer[2])], n, s)


def estimate_resources(n: int, s: int) -> AdderResources:
    """Resources of build_adder(n, s)."""
    return resources(build_adder(n, s))


# -- simulation ----------------------------------------------------------------


def simulate(circuit: QuantumCircuit, initial) -> list:
    """Apply the gates classically over {0,1}; returns the final assignment.

    `initial` is a sequence assigning every qubit (index = qubit id) a 0 or
    a 1; another value or a length other than n_qubits raises ValueError,
    as does a gate on a qubit outside 0..n_qubits-1, negative ids included,
    or of an unknown kind.
    """
    if len(initial) != circuit.n_qubits:
        raise ValueError(f"expected {circuit.n_qubits} qubit values, got {len(initial)}")
    for q, v in enumerate(initial):
        if v not in (0, 1):
            raise ValueError(f"qubit {q}: expected 0 or 1, got {v!r}")
    _check(circuit.layers, circuit.n_qubits)
    return _batch_run(circuit.layers, [int(v) for v in initial], 1)


def resources(circuit: QuantumCircuit) -> AdderResources:
    """Measured Toffoli count, dependence-chain Toffoli depth, and ancillas.

    Raises LayerOverlapError for two gates of one label on a shared qubit
    and, as `simulate` does, ValueError for a malformed gate (:func:`_check`).

    The depth update runs a whole layer at a time, exact as the gates of a
    layer touch distinct qubits.  Per qubit, ``wd`` is the depth of its last
    write and ``hd`` the greater of that and its deepest read since.  ``wd``
    never falls and only a Toffoli raises its maximum, the depth.
    """
    layers, nq = circuit.layers, circuit.n_qubits
    _check(layers, nq, disjoint=True)
    wd, hd = np.zeros((2, nq), dtype=np.int64)
    count = 0
    for kind, _, *ctrls, t in layers:
        d = hd[t]
        for c in ctrls:
            d = np.maximum(d, wd[c])
        if kind == TOFFOLI:
            d += 1
            count += len(t)
        for c in ctrls:
            hd[c] = np.maximum(hd[c], d)
        wd[t] = hd[t] = d
    total = sum(len(qs) for qs in circuit.registers.values())
    ancillas = max(total - 2 * circuit.n, 0) if circuit.n else total
    return AdderResources(count, int(wd.max()) if nq else 0, ancillas)


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class AdderCheckReport:
    n: int
    s: int
    exhaustive: bool
    cases: int
    ok: bool
    counterexample: Optional[tuple]  # (n, s, a, b, observed_sum, observed_carry)


def _batch_run(layers: list, vals: list, all_ones: int) -> list:
    """Apply `layers` to `vals`, one integer per qubit (bit t = trial t's
    value; NOT flips the bits of `all_ones`), gate by gate in order.  The
    caller has checked the layers against len(vals) with :func:`_check`.
    """
    for kind, _, *qs in layers:
        cols = [q.tolist() for q in qs]
        if kind == TOFFOLI:
            for c1, c2, t in zip(*cols, strict=True):
                vals[t] ^= vals[c1] & vals[c2]
        elif kind == CNOT:
            for c, t in zip(*cols, strict=True):
                vals[t] ^= vals[c]
        else:  # NOT
            for t in cols[0]:
                vals[t] ^= all_ones
    return vals


_BATCH = 17  # log2 of verify_adder's cases per batch: 16 KiB ints stay in cache


def _stripe(bit: int, total_bits: int) -> int:
    """Bitmask of enumeration indices whose `bit` is set, over 2**total_bits."""
    run = 1 << bit
    mask = ((1 << run) - 1) << run
    width = run * 2
    while width < (1 << total_bits):
        mask |= mask << width
        width *= 2
    return mask


def verify_adder(n: int, s: int, trials: int = 10000,
                 seed: int = 0, circuit: Optional[QuantumCircuit] = None) -> AdderCheckReport:
    """Check sum, carry-out, and scratch restoration against ripple-carry.

    Exhaustive over all (a, b) pairs for n <= 10, otherwise `trials` random
    pairs. The cases run in batches of 2**17 (`_BATCH`): each qubit's
    values across a batch are one integer, whose bit t is the batch's case
    t, and the expected sum comes from an independent bitwise ripple-carry
    over the same integers.  The check stops at the first failing batch and
    reports its first failing case; exhaustive case t is a = t mod 2**n,
    b = t >> n.  In random mode ``random.Random(seed)`` draws the bit planes
    themselves, n of `trials` bits for a and then n for b, so a seed keeps
    its bit planes, and so its trials and its counterexample.  Random mode
    is a sample: a fault that shows on few inputs can pass it.  Raises
    ValueError for an n or s that `build_adder` rejects (with a `circuit`
    too), for a `trials` that is not an integer, or is below 1 when the
    check is not exhaustive, for a `circuit` whose a, b or g register is not
    n qubits, and, as `simulate` does, for a malformed gate.
    """
    n, s = _check_params(n, s)
    exhaustive = n <= 10
    trials = _as_int("trials", trials)
    if not exhaustive and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if circuit is None:
        circuit = build_adder(n, s)
    regs = circuit.registers
    sizes = [len(regs.get(r, ())) for r in "abg"]
    if sizes != [n] * 3:
        raise ValueError(f"circuit registers a, b, g have {sizes} qubits, need n = {n}")
    _check(circuit.layers, circuit.n_qubits)
    if exhaustive:
        cases = 1 << (2 * n)
        width = min(2 * n, _BATCH)  # input bits 0..width-1 vary within a batch
        stripes = [_stripe(j, width) for j in range(width)]
    else:
        rng = random.Random(seed)
        cases = trials
        planes = [rng.getrandbits(trials) for _ in range(2 * n)]
    size = min(cases, 1 << _BATCH)
    ins = [*regs["a"], *regs["b"]]
    carry_q = regs["g"][n - 1]
    outs = [*ins, carry_q]
    scratch = [q for name, qs in regs.items() if name not in ("a", "b", "g") for q in qs]
    for lo in range(0, cases, size):
        ones = (1 << min(size, cases - lo)) - 1
        if exhaustive:  # the higher input bits are constant across a batch
            bits = stripes + [ones if lo >> j & 1 else 0 for j in range(width, 2 * n)]
        else:
            bits = planes if size == cases else [p >> lo & ones for p in planes]

        # independent oracle: bitwise ripple-carry on the packed values;
        # `want` is a (preserved), then the sum, then the carry-out
        carry = 0
        want = bits[:n]
        for x, y in zip(bits[:n], bits[n:]):
            p = x ^ y
            want.append(p ^ carry)
            carry = (x & y) | (carry & p)
        want.append(carry)

        vals = [0] * circuit.n_qubits
        for q, v in zip(ins, bits):
            vals[q] = v
        _batch_run(circuit.layers, vals, ones)

        bad = 0
        for q, w in zip(outs, want):
            if vals[q] != w:  # a compare allocates nothing; an XOR would
                bad |= vals[q] ^ w
        for q in scratch:  # scratch restored
            if vals[q]:
                bad |= vals[q]
        if bad:
            t = (bad & -bad).bit_length() - 1
            # bit t of bits[j] and vals[q] is input bit j and qubit q's final
            # value in case lo + t
            av, bv = (sum((v >> t & 1) << i for i, v in enumerate(bits[k:k + n]))
                      for k in (0, n))
            got_sum = sum((vals[q] >> t & 1) << i for i, q in enumerate(regs["b"]))
            return AdderCheckReport(n, s, exhaustive, cases, False,
                                    (n, s, av, bv, got_sum, vals[carry_q] >> t & 1))
    return AdderCheckReport(n, s, exhaustive, cases, True, None)


# -- export ---------------------------------------------------------------------


def netlist(circuit: QuantumCircuit) -> str:
    """Line-oriented gate list: `T a b c`, `CX a b`, `X a`, layer comments.

    Raises ValueError, as `simulate` does, for a gate of an unknown kind or
    on a qubit outside 0..n_qubits-1.
    """
    _check(circuit.layers, circuit.n_qubits)
    parts = []
    for label, run in groupby(circuit.layers, itemgetter(1)):
        parts.append(f"# layer {label if label is not None else '-'}\n")
        parts.extend(_LINE[kind] * len(qs[0]) % tuple(np.stack(qs, axis=1).ravel().tolist())
                     for kind, _, *qs in run)
    return "".join(parts) or "\n"

