"""Reversible carry-lookahead adder built on the blocked prefix recursion.

Computes ``b <- (a + b) mod 2**n`` in-place over NOT/CNOT/Toffoli gates,
with the per-position carries retained in the ``g`` register (``g[n-1]`` is
the overall carry-out) and every scratch register restored to zero.

Structure, mirroring the blocked prefix circuit level by level:

* ``g[i] <- a[i] AND b[i]`` (one Toffoli layer), then ``b <- a XOR b``
  (CNOT layer), so ``b`` holds the propagate bits.
* Carry recursion on blocks of s positions: within-block Toffoli chains
  extend generate spans (the chain of block 0 is seeded by the already
  complete carry and finishes its block outright); propagate products for
  the surviving block totals are accumulated into fresh ancillas; the
  recursion completes the block boundaries; one finalize layer completes
  everything else, fanning the boundary carry out through CNOT copies so
  the layer stays disjoint.  Scratch products are uncomputed in reverse.
* ``b[i] <- b[i] XOR g[i-1]`` (CNOT layer) turns propagates into sum bits.

The adder is written once, as the layer list of :func:`_adder_layers`: each
step above is one or more whole parallel layers, a layer being one gate
kind and label over index arrays with one gate per index, its gates on
distinct qubits.  :func:`build_adder` expands the list into :class:`Gate`
tuples; :func:`estimate_resources` reads the same list and applies the
depth update a whole layer at a time, so it counts the builder's own
qubits.  :func:`resources` measures any circuit gate by gate and is the
reference the estimator is tested against.

CNOT fan-out copies and the XOR layers carry no Toffoli layer label and do
not count toward Toffoli depth; depth is measured as the longest chain of
Toffolis under data dependence (a gate depends on an earlier one iff one's
target overlaps the other's qubits -- shared controls commute).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

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

    def inverse(self) -> "QuantumCircuit":
        """Formal inverse: reversed gate order (each gate is self-inverse)."""
        return QuantumCircuit(self.registers, list(reversed(self.gates)),
                              self.n, self.s)


# -- emission ------------------------------------------------------------------


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


def estimate_resources(n: int, s: int) -> AdderResources:
    """Resources of build_adder(n, s), counted a whole layer at a time.

    Applies :class:`_DepthCounter`'s update to every gate of a layer at
    once; that is exact because the gates of a layer touch distinct qubits.
    """
    registers, layers = _adder_layers(n, s)
    total = sum(len(qs) for qs in registers.values())
    wd = np.zeros(total, dtype=np.int64)  # qubit -> depth of last write
    rd = np.zeros(total, dtype=np.int64)  # qubit -> max read depth since then
    count = depth = 0
    for kind, _, *ctrls, t in layers:
        d = np.maximum(wd[t], rd[t])
        for c in ctrls:
            d = np.maximum(d, wd[c])
        if kind == TOFFOLI:
            d += 1
            count += len(t)
            depth = max(depth, int(d.max()))
        for c in ctrls:
            rd[c] = np.maximum(rd[c], d)
        wd[t] = d
        rd[t] = 0
    return AdderResources(count, depth, total - 2 * n)


# -- simulation ----------------------------------------------------------------


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


def toffoli_layer_count(circuit: QuantumCircuit) -> int:
    return len({g.toffoli_layer for g in circuit.gates if g.toffoli_layer})


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class AdderCheckReport:
    n: int
    s: int
    exhaustive: bool
    cases: int
    ok: bool
    counterexample: Optional[tuple]  # (n, s, a, b, observed_sum, observed_carry)


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


def _stripe(bit: int, total_bits: int) -> int:
    """Bitmask of enumeration indices whose `bit` is set, over 2**total_bits."""
    run = 1 << bit
    mask = ((1 << run) - 1) << run
    width = run * 2
    while width < (1 << total_bits):
        mask |= mask << width
        width *= 2
    return mask


def _bit_planes(values, n: int) -> list:
    """Bit t of integer i is bit i of values[t]; numpy packs one plane at a time."""
    width = -(-n // 8)  # row j of byte_rows is byte j of every value
    byte_rows = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in values),
                              dtype=np.uint8).reshape(-1, width).T.copy()
    return [int.from_bytes(np.packbits(byte_rows[i >> 3] >> (i & 7) & 1,
                                       bitorder="little").tobytes(), "little")
            for i in range(n)]


def verify_adder(n: int, s: int, trials: int = 10000,
                 seed: int = 0, circuit: Optional[QuantumCircuit] = None) -> AdderCheckReport:
    """Check sum, carry-out, and scratch restoration against ripple-carry.

    Exhaustive over all (a, b) pairs for n <= 10, otherwise `trials` random
    pairs from ``random.Random(seed)`` (a seed always gives the same pairs).
    All cases run simultaneously: each qubit's values across cases are
    packed into one big integer (random pairs by numpy, one bit plane at a
    time), and the expected sum comes from an independent bitwise
    ripple-carry over the same packed integers.  Raises ValueError for
    trials < 1 when the check is not exhaustive, for a `circuit` whose
    a, b or g register is not n qubits, and, as `simulate`, for a gate on a
    qubit outside 0..n_qubits-1, negative ids included, or of an unknown
    kind.
    """
    exhaustive = n <= 10
    if not exhaustive and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if circuit is None:
        circuit = build_adder(n, s)
    sizes = [len(circuit.registers.get(r, ())) for r in "abg"]
    if sizes != [n] * 3:
        raise ValueError(f"circuit registers a, b, g have {sizes} qubits, need n = {n}")
    if exhaustive:
        cases = 1 << (2 * n)
        a_bits = [_stripe(i, 2 * n) for i in range(n)]
        b_bits = [_stripe(n + i, 2 * n) for i in range(n)]
    else:
        rng = random.Random(seed)
        cases = trials
        pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(trials)]
        a_bits, b_bits = (_bit_planes(values, n) for values in zip(*pairs))
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
    _batch_run(circuit.gates, vals, all_ones)

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
        av, bv = pairs[t]
    state = [0] * circuit.n_qubits
    for i in range(n):
        state[circuit.registers["a"][i]] = (av >> i) & 1
        state[circuit.registers["b"][i]] = (bv >> i) & 1
    final = simulate(circuit, state)
    got_sum = sum(final[circuit.registers["b"][i]] << i for i in range(n))
    got_carry = final[circuit.registers["g"][n - 1]]
    return AdderCheckReport(n, s, exhaustive, cases, False,
                            (n, s, av, bv, got_sum, got_carry))


# -- export ---------------------------------------------------------------------


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


def resource_report(n: int, s: int) -> dict:
    r = estimate_resources(n, s)
    return {
        "n": n,
        "s": s,
        "toffoli_count": r.toffoli_count,
        "toffoli_depth": r.toffoli_depth,
        "ancillas": r.ancilla_count,
    }
