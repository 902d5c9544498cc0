"""The gate-list form of the adder that qadder.py used before a circuit
became its layers, kept verbatim as the reference the differential tests in
test_qadder.py and criterion 10's estimator check compare against: `build_adder` expands the layers into one
`Gate` tuple per gate, `resources` checks layer overlaps and counts depth
gate by gate with `_DepthCounter`, and `netlist` and `simulate` walk the
gates one at a time.  The layer builder is kept as it was too, so the
reference does not share the code under test.  `inverse` reverses a
library circuit's layers, for the reversibility test.  `verify_unbatched`
is `verify_adder` as it was before it ran its cases in batches: one integer
per qubit over all the cases, simulated gate by gate.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from prefixcircuits import qadder
from prefixcircuits.qadder import (
    CNOT,
    NOT,
    TOFFOLI,
    AdderCheckReport,
    AdderResources,
    Gate,
    LayerOverlapError,
)

_KINDS = frozenset((NOT, CNOT, TOFFOLI))


def _check_gates(gates, n_qubits: int):
    """Raise ValueError for a gate of an unknown kind, or for one on a qubit
    outside 0..n_qubits-1 (negative ids included) naming the first such gate.

    Two C-level scans, over the kinds and over the set of qubit ids, clear a
    well-formed gate list; only a bad one is walked gate by gate.
    """
    qubits = set(chain.from_iterable(map(itemgetter(1), gates)))
    if _KINDS.issuperset(map(itemgetter(0), gates)) and (
            not qubits or 0 <= min(qubits) <= max(qubits) < n_qubits):
        return
    for i, (kind, qs, _) in enumerate(gates):
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        for q in qs:
            if not 0 <= q < n_qubits:
                raise ValueError(f"gate {i} ({kind} on {tuple(qs)}) uses qubit {q},"
                                 f" outside 0..{n_qubits - 1}")


class QuantumCircuit:
    """Ordered reversible gate list over named qubit registers."""

    def __init__(self, registers: dict, gates: Sequence[Gate], n: int = 0, s: int = 0):
        self.registers = {name: list(qs) for name, qs in registers.items()}
        self.gates = list(gates)
        self.n = n
        self.s = s
        self.n_qubits = max(
            (q + 1 for qs in self.registers.values() for q in qs), default=0
        )


class _DepthCounter:
    """Gate-by-gate Toffoli count and dependence depth, without storing gates."""

    def __init__(self, n_qubits: int):
        self.toffoli_count = 0
        self.toffoli_depth = 0
        self._wd = [0] * n_qubits  # qubit -> depth of last write
        self._rd = [0] * n_qubits  # qubit -> max depth among reads since that write

    def gate(self, kind, qubits, layer=None):
        wd, rd = self._wd, self._rd
        if kind == TOFFOLI:
            c1, c2, t = qubits
            d = 1 + max(wd[c1], wd[c2], wd[t], rd[t])
            self.toffoli_count += 1
            if d > self.toffoli_depth:
                self.toffoli_depth = d
            if d > rd[c1]:
                rd[c1] = d
            if d > rd[c2]:
                rd[c2] = d
            wd[t] = d
            rd[t] = 0
        elif kind == CNOT:
            c, t = qubits
            d = max(wd[c], wd[t], rd[t])
            if d > rd[c]:
                rd[c] = d
            wd[t] = d
            rd[t] = 0
        else:  # NOT
            (t,) = qubits
            wd[t] = max(wd[t], rd[t])
            rd[t] = 0


def _adder_layers(n: int, s: int):
    """The adder as its register map and its gate layers, in circuit order.

    A layer is ``(kind, label, *qubit_arrays)``: one gate per index of the
    equal-length int64 arrays (controls first, target last), and the gates
    of one layer touch distinct qubits.  ``label`` is the Toffoli layer
    label, None for CNOT layers.  Registers are ranges: a, b, g, then the
    propagate products ``p{t}`` in recursion order, then the copy pool z
    that every level reuses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 2:
        raise ValueError("block size s must be >= 2")
    a = np.arange(n)
    b, g = a + n, a + 2 * n
    registers = {"a": range(n), "b": range(n, 2 * n), "g": range(2 * n, 3 * n)}
    layers = [(TOFFOLI, "g-init", a, b, g), (CNOT, None, a, b)]
    free = 3 * n
    pool = 0

    def level(t: int, gq, pq):
        nonlocal free, pool
        M = len(gq)
        # up: within-block generate chains (block 0's chain completes carries)
        for k in range(1, s):
            i = np.arange(k, M, s)
            layers.append((TOFFOLI, f"L{t} chain {k}", gq[i - 1], pq[i], gq[i]))
        if M <= s:
            return
        # propagate products for blocks past the first: chi[k][j-1] is the
        # product over positions 0..k of block j, for k >= 1 in fresh slot
        # (j-1)*(s-1) + k-1 (every block but the last is full)
        B = -(-M // s)
        j = np.arange(1, B)
        base = free
        free += M - B - (s - 1)
        registers[f"p{t + 1}"] = range(base, free)
        chi = [pq[j * s]] + [base + (j - 1) * (s - 1) + (k - 1) for k in range(1, s)]
        props = []
        block_p = pq[::s].copy()  # a block's propagate: its chain's last product
        for k in range(1, s):
            m = np.count_nonzero(j * s + k < M)  # blocks with a position k
            props.append((k, chi[k - 1][:m], pq[j[:m] * s + k], chi[k][:m]))
            block_p[j[:m]] = chi[k][:m]
        layers.extend((TOFFOLI, f"L{t} prop {k}", *qs) for k, *qs in props)
        level(t + 1, gq[np.minimum(np.arange(B) * s + s - 1, M - 1)], block_p)
        # down: finalize every non-boundary position of the blocks past the
        # first, fanning each block's incoming carry out through CNOT copies
        # into the pool (allocated after every p register) so the layer
        # stays disjoint
        copies, fin = [], []
        for k in range(s - 1):
            jj = j[j * s + k + 1 < M]
            ctrl = gq[jj * s - 1]
            if k:
                z = free + (jj - 1) * (s - 2) + (k - 1)
                copies.append((CNOT, None, ctrl, z))
                ctrl = z
            fin.append((ctrl, chi[k][: len(jj)], gq[jj * s + k]))
        pool = max(pool, sum(len(c[3]) for c in copies))
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
    return registers, [layer for layer in layers if len(layer[2])]


def build_adder(n: int, s: int) -> QuantumCircuit:
    registers, layers = _adder_layers(n, s)
    # one int object per qubit, shared by every gate on it
    ids = np.arange(sum(len(qs) for qs in registers.values()), dtype=object)
    gates = []
    for kind, label, *qs in layers:
        gates.extend(Gate(kind, q, label) for q in zip(*(ids[q].tolist() for q in qs)))
    return QuantumCircuit({name: ids[qs] for name, qs in registers.items()},
                          gates, n, s)


def simulate(circuit: QuantumCircuit, initial) -> list:
    """Apply the gates classically over {0,1}; returns the final assignment.

    `initial` is a sequence assigning every qubit (index = qubit id) or a
    dict mapping qubit ids to bits.  A gate on a qubit outside
    0..n_qubits-1, negative ids included, or of an unknown kind raises
    ValueError.
    """
    nq = circuit.n_qubits
    if isinstance(initial, dict):
        missing = [q for q in range(nq) if q not in initial]
        if missing:
            raise ValueError(f"unassigned qubits: {missing[:5]}")
        state = [int(initial[q]) & 1 for q in range(nq)]
    else:
        if len(initial) != nq:
            raise ValueError(f"expected {nq} qubit values, got {len(initial)}")
        state = [int(v) & 1 for v in initial]
    return _batch_run(circuit.gates, state, 1)


def resources(circuit: QuantumCircuit) -> AdderResources:
    """Measured Toffoli count, dependence-chain Toffoli depth, and ancillas.

    Also checks that gates sharing a Toffoli layer label touch disjoint
    qubits (raises LayerOverlapError otherwise).  Raises ValueError, as
    `simulate` does, for a gate of an unknown kind or on a qubit outside
    0..n_qubits-1.
    """
    _check_gates(circuit.gates, circuit.n_qubits)
    seen: dict = {}
    for gate in circuit.gates:
        if gate.toffoli_layer is None:
            continue
        used = seen.setdefault(gate.toffoli_layer, set())
        overlap = used.intersection(gate.qubits)
        if overlap:
            raise LayerOverlapError(
                f"layer {gate.toffoli_layer!r} reuses qubits {sorted(overlap)}"
            )
        used.update(gate.qubits)
    counter = _DepthCounter(circuit.n_qubits)
    for gate in circuit.gates:
        counter.gate(gate.kind, gate.qubits, gate.toffoli_layer)
    total = sum(len(qs) for qs in circuit.registers.values())
    ancillas = max(total - 2 * circuit.n, 0) if circuit.n else total
    return AdderResources(counter.toffoli_count, counter.toffoli_depth, ancillas)


def _batch_run(gates, vals: list, all_ones: int) -> list:
    """Apply `gates` to `vals`, one integer per qubit (bit t = trial t's value;
    NOT flips the bits of `all_ones`).

    Raises ValueError, through :func:`_check_gates`, for a gate of an unknown
    kind or on a qubit outside 0..len(vals)-1.
    """
    _check_gates(gates, len(vals))
    for kind, qs, _ in gates:
        if kind == TOFFOLI:
            vals[qs[2]] ^= vals[qs[0]] & vals[qs[1]]
        elif kind == CNOT:
            vals[qs[1]] ^= vals[qs[0]]
        else:  # NOT
            vals[qs[0]] ^= all_ones
    return vals


def netlist(circuit: QuantumCircuit) -> str:
    """Line-oriented gate list: `T a b c`, `CX a b`, `X a`, layer comments.

    Raises ValueError, as `simulate` does, for a gate of an unknown kind or
    on a qubit outside 0..n_qubits-1.
    """
    _check_gates(circuit.gates, circuit.n_qubits)
    lines = []
    current = object()
    for kind, qs, layer in circuit.gates:
        if layer != current:
            lines.append(f"# layer {layer if layer is not None else '-'}")
            current = layer
        if kind == TOFFOLI:
            lines.append(f"T {qs[0]} {qs[1]} {qs[2]}")
        elif kind == CNOT:
            lines.append(f"CX {qs[0]} {qs[1]}")
        else:  # NOT
            lines.append(f"X {qs[0]}")
    return "\n".join(lines) + "\n"


def inverse(circuit: qadder.QuantumCircuit) -> qadder.QuantumCircuit:
    """Formal inverse of a library circuit: reversed gate order (each gate is
    self-inverse)."""
    return qadder.QuantumCircuit.from_layers(
        circuit.registers,
        [(kind, label, *(q[::-1] for q in qs)) for kind, label, *qs in reversed(circuit.layers)],
        circuit.n, circuit.s)


def _stripe(bit: int, total_bits: int) -> int:
    """Bitmask of enumeration indices whose `bit` is set, over 2**total_bits."""
    run = 1 << bit
    mask = ((1 << run) - 1) << run
    width = run * 2
    while width < (1 << total_bits):
        mask |= mask << width
        width *= 2
    return mask


def verify_unbatched(n: int, s: int, trials: int = 10000, seed: int = 0,
                     circuit: qadder.QuantumCircuit = None) -> AdderCheckReport:
    """verify_adder's report from all its cases at once: each qubit's values
    across every case are one integer, whose bit t is case t.  Exhaustive
    for n <= 10 (case t is a = t mod 2**n, b = t >> n), otherwise `trials`
    pairs whose 2n bit planes ``random.Random(seed)`` draws, a's first."""
    exhaustive = n <= 10
    if circuit is None:
        circuit = qadder.build_adder(n, s)
    if exhaustive:
        cases = 1 << (2 * n)
        a_bits = [_stripe(i, 2 * n) for i in range(n)]
        b_bits = [_stripe(n + i, 2 * n) for i in range(n)]
    else:
        rng = random.Random(seed)
        cases = trials
        a_bits = [rng.getrandbits(trials) for _ in range(n)]
        b_bits = [rng.getrandbits(trials) for _ in range(n)]
    all_ones = (1 << cases) - 1

    # independent oracle: bitwise ripple-carry on the packed values
    carry = 0
    want_sum = []
    for i in range(n):
        want_sum.append(a_bits[i] ^ b_bits[i] ^ carry)
        carry = (a_bits[i] & b_bits[i]) | (carry & (a_bits[i] ^ b_bits[i]))

    vals = [0] * circuit.n_qubits
    for i in range(n):
        vals[circuit.registers["a"][i]] = a_bits[i]
        vals[circuit.registers["b"][i]] = b_bits[i]
    _batch_run(list(circuit.gates), vals, all_ones)

    bad = 0
    for i in range(n):
        bad |= vals[circuit.registers["a"][i]] ^ a_bits[i]  # a preserved
        bad |= vals[circuit.registers["b"][i]] ^ want_sum[i]  # sum correct
    bad |= vals[circuit.registers["g"][n - 1]] ^ carry  # carry-out correct
    for name, qs in circuit.registers.items():
        if name in ("a", "b", "g"):
            continue
        for q in qs:  # scratch restored
            bad |= vals[q]

    if not bad:
        return AdderCheckReport(n, s, exhaustive, cases, True, None)
    t = (bad & -bad).bit_length() - 1
    if exhaustive:
        av = t & ((1 << n) - 1)
        bv = t >> n
    else:
        av = sum((a_bits[i] >> t & 1) << i for i in range(n))
        bv = sum((b_bits[i] >> t & 1) << i for i in range(n))
    # bit t of vals[q] is qubit q's final value in case t
    got_sum = sum((vals[q] >> t & 1) << i for i, q in enumerate(circuit.registers["b"]))
    got_carry = vals[circuit.registers["g"][n - 1]] >> t & 1
    return AdderCheckReport(n, s, exhaustive, cases, False,
                            (n, s, av, bv, got_sum, got_carry))
