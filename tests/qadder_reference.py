"""The gate-list form of the adder that qadder.py used before a circuit
became its layers, the reference the differential tests in test_qadder.py
and criterion 10's estimator check compare against: `build_adder` expands
the layers into one `Gate` tuple per gate, `resources` checks layer
overlaps and counts depth gate by gate with `_DepthCounter`, and `netlist`
and `simulate` walk the gates one at a time.  The layer builder
`_adder_layers` is written apart too, with index arrays and masks where the
library slices, so the reference does not share the code under test; it
follows the recursion of `reblocked_circuit`.  `inverse` reverses a
library circuit's layers, for the reversibility test.  `verify_unbatched`
is `verify_adder` as it was before it ran its cases in batches: one integer
per qubit over all the cases, simulated gate by gate.  `certify` checks an
adder for all inputs at once, with symbolic carry spans.
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

from kronecker_reference import is_power

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
        if M > s and is_power(M, s):  # the level for M - 1, then one gate
            level(t, gq[:-1], pq[:-1])
            layers.append((TOFFOLI, f"L{t} last", gq[[M - 2]], pq[[M - 1]], gq[[M - 1]]))
            return
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
        for k in range(1, s):
            m = np.count_nonzero(j * s + k < M)  # blocks with a position k
            props.append((k, chi[k - 1][:m], pq[j[:m] * s + k], chi[k][:m]))
        layers.extend((TOFFOLI, f"L{t} prop {k}", *qs) for k, *qs in props)
        # the middle reads the last position of the full blocks 0..B-2, with
        # propagates pq[0] (never read) and each block's product over all s
        full = np.arange(B - 1)
        level(t + 1, gq[full * s + s - 1], np.r_[pq[0], chi[s - 1][full[1:] - 1]])
        # down: finalize every position of the blocks past the first that is
        # not a middle total, each block's incoming carry fanned out through
        # CNOT copies into the pool (allocated after every p register)
        copies, fin, used = [], [], 0
        for k in range(s):
            jj = j[(j * s + k < M) & ((k < s - 1) | (j == B - 1))]
            ctrl = gq[jj * s - 1]
            if k:
                z = free + used + np.arange(len(jj))
                used += len(jj)
                copies.append((CNOT, None, ctrl, z))
                ctrl = z
            fin.append((ctrl, chi[k][jj - 1], gq[jj * s + k]))
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


# -- all-inputs certificate: symbolic carry spans -------------------------------
#
# A value is None (the constant 0) or (letter, i, j): A(i) and B(i) are the
# input bits (i == j), P(i..j) and G(i..j) the propagate and generate of the
# positions i..j, and S(i) the sum bit.  Every rule below is an exact
# Boolean identity, so a circuit whose every gate fits one and whose end
# state is the adder's adds every one of the 2^(2n) input pairs.  The rules
# are Brent and Kung's carry operator on spans (IEEE Trans. Computers C-31,
# 1982).  The check is sound, not complete: a correct adder built from other
# identities is refused.


def _span_rule(kind, ctrls, t):
    """The value a gate leaves on its target, whose value is `t`, from its
    controls' values `ctrls`; False where no identity fits."""
    if None in ctrls:
        return False
    if kind == CNOT:
        c = ctrls[0]
        if t is None or t == c:  # a copy into 0, or the copy undone
            return None if t else c
        if (c[0], t[0]) == ("A", "B") and c[1:] == t[1:]:  # a XOR b = P(i..i)
            return ("P", *t[1:])
        if (c[:2], t[0]) == (("G", 0), "P") and t[1] == t[2] == c[2] + 1:
            return ("S", *t[1:])  # P(i..i) XOR the carry G(0..i-1)
        return False
    if kind != TOFFOLI:
        return False
    x, y = sorted(ctrls, key=itemgetter(1))  # x starts first
    if {x[0], y[0]} == {"A", "B"} and x[1:] == y[1:]:
        f = ("G", *x[1:])  # a AND b
    elif x[2] + 1 != y[1]:
        return False  # spans that do not abut
    elif x[0] == y[0] == "P":
        f = ("P", x[1], y[2])
    elif (x[0], y[0]) == ("G", "P") and t == ("G", *y[1:]):
        # G(x..y) = G(y) OR G(x) P(y), and the OR is an XOR as G(y) P(y) = 0
        return ("G", x[1], y[2])
    else:
        return False
    return f if t is None else None if t == f else False


def certify(circuit: qadder.QuantumCircuit) -> bool:
    """True iff every gate fits a span identity and, at the end, a holds A,
    b[0] P(0..0), b[i] S(i), g[i] G(0..i), and every other qubit 0."""
    regs = circuit.registers
    val = [None] * circuit.n_qubits
    for i, (qa, qb) in enumerate(zip(regs["a"], regs["b"])):
        val[qa], val[qb] = ("A", i, i), ("B", i, i)
    for kind, _, *qs in circuit.layers:
        for *ctrls, t in zip(*(q.tolist() for q in qs)):
            val[t] = _span_rule(kind, [val[c] for c in ctrls], val[t])
            if val[t] is False:
                return False
    want = {q: ("A", i, i) for i, q in enumerate(regs["a"])}
    want.update((q, ("S", i, i) if i else ("P", 0, 0)) for i, q in enumerate(regs["b"]))
    want.update((q, ("G", 0, i)) for i, q in enumerate(regs["g"]))
    return all(v == want.get(q) for q, v in enumerate(val))
