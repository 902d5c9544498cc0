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

CNOT fan-out copies and the XOR layers carry no Toffoli layer label and do
not count toward Toffoli depth; depth is measured as the longest chain of
Toffolis under data dependence (a gate depends on an earlier one iff one's
target overlaps the other's qubits -- shared controls commute).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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


class _Recorder:
    """Sink that stores gates."""

    def __init__(self):
        self.gates = []

    def gate(self, kind, qubits, layer=None):
        self.gates.append(Gate(kind, tuple(qubits), layer))


class _DepthCounter:
    """Sink that tracks counts and dependence depth without storing gates."""

    def __init__(self):
        self.toffoli_count = 0
        self.toffoli_depth = 0
        self._wd: list = []  # qubit -> depth of last write
        self._rd: list = []  # qubit -> max depth among reads since that write

    def gate(self, kind, qubits, layer=None):
        wd, rd = self._wd, self._rd
        hi = max(qubits)
        if hi >= len(wd):
            wd.extend([0] * (hi + 1 - len(wd)))
            rd.extend([0] * (hi + 1 - len(rd)))
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


def _emit_adder(n: int, s: int, sink) -> dict:
    """Emit the adder's gates into `sink`; returns the register map."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 2:
        raise ValueError("block size s must be >= 2")
    a = list(range(n))
    b = list(range(n, 2 * n))
    g = list(range(2 * n, 3 * n))
    registers = {"a": a, "b": b, "g": g}
    next_free = [3 * n]
    z_pool: list[int] = []

    def alloc(count: int) -> list:
        start = next_free[0]
        next_free[0] += count
        return list(range(start, start + count))

    for i in range(n):
        sink.gate(TOFFOLI, (a[i], b[i], g[i]), "g-init")
    for i in range(n):
        sink.gate(CNOT, (a[i], b[i]))

    def recurse(t: int, gq: list, pq: list):
        M = len(gq)
        if M <= 1:
            return
        blocks = [list(range(j, min(j + s, M))) for j in range(0, M, s)]
        # up: within-block generate chains (block 0's chain completes carries)
        for k in range(1, s):
            label = f"L{t} chain {k}"
            for blk in blocks:
                if k < len(blk):
                    sink.gate(
                        TOFFOLI, (gq[blk[k - 1]], pq[blk[k]], gq[blk[k]]), label
                    )
        if M <= s:
            return
        # propagate products for blocks past the first
        preg = alloc(sum(len(blk) - 1 for blk in blocks[1:]))
        registers[f"p{t + 1}"] = preg
        chi: dict = {}
        pos = 0
        prop_labels = [f"L{t} prop {k}" for k in range(s)]
        for j, blk in enumerate(blocks):
            if j == 0:
                continue
            prev = pq[blk[0]]
            for k in range(1, len(blk)):
                q = preg[pos]
                pos += 1
                sink.gate(TOFFOLI, (prev, pq[blk[k]], q), prop_labels[k])
                chi[(j, k)] = q
                prev = q
        # recurse on block boundaries
        next_g = [gq[blk[-1]] for blk in blocks]
        next_p = [None] + [
            chi[(j, len(blk) - 1)] if len(blk) > 1 else pq[blk[0]]
            for j, blk in enumerate(blocks)
            if j >= 1
        ]
        recurse(t + 1, next_g, next_p)
        # down: finalize the non-boundary positions of blocks past the first
        copies = []
        fin_label = f"L{t} fin"
        for j, blk in enumerate(blocks):
            if j == 0:
                continue
            fins = len(blk) - 1
            if fins < 1:
                continue
            seed = gq[blocks[j - 1][-1]]
            while len(z_pool) < len(copies) + fins - 1:
                z_pool.extend(alloc(1))
            ctrls = [seed]
            for c in range(fins - 1):
                zq = z_pool[len(copies)]
                copies.append((seed, zq))
                sink.gate(CNOT, (seed, zq))
                ctrls.append(zq)
            for k in range(fins):
                prop = pq[blk[0]] if k == 0 else chi[(j, k)]
                sink.gate(TOFFOLI, (ctrls[k], prop, gq[blk[k]]), fin_label)
        for seed, zq in reversed(copies):
            sink.gate(CNOT, (seed, zq))
        # uncompute propagate products, newest first
        unprop_labels = [f"L{t} unprop {k}" for k in range(s)]
        for j, blk in enumerate(blocks):
            if j == 0:
                continue
            for k in range(len(blk) - 1, 0, -1):
                prev = pq[blk[0]] if k == 1 else chi[(j, k - 1)]
                sink.gate(TOFFOLI, (prev, pq[blk[k]], chi[(j, k)]),
                          unprop_labels[k])

    recurse(0, g, b)
    for i in range(1, n):
        sink.gate(CNOT, (g[i - 1], b[i]))
    if z_pool:
        registers["z"] = z_pool
    return registers


def build_adder(n: int, s: int) -> QuantumCircuit:
    rec = _Recorder()
    registers = _emit_adder(n, s, rec)
    return QuantumCircuit(registers, rec.gates, n, s)


def counted_resources(n: int, s: int) -> AdderResources:
    """Resources of build_adder(n, s), gate by gate, without storing gates."""
    counter = _DepthCounter()
    registers = _emit_adder(n, s, counter)
    total = sum(len(qs) for qs in registers.values())
    return AdderResources(counter.toffoli_count, counter.toffoli_depth,
                          total - 2 * n)


def estimate_resources(n: int, s: int) -> AdderResources:
    """Resources of build_adder(n, s), computed level-by-level.

    Processes whole Toffoli layers as index-array batches (gates within a
    layer touch disjoint qubits, so their dependence-depth updates are
    independent).  Follows the builder's structure exactly -- including the
    scratch-pool reuse pattern -- and is pinned to
    ``resources(build_adder(n, s))`` by the test suite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 2:
        raise ValueError("block size s must be >= 2")
    # Qubit layout: a 0..n-1, b n..2n-1, g 2n..3n-1, then the copy pool
    # (sized for the widest level, which is the top one), then per-level
    # propagate ancillas.  Pool slots use padded per-block positions; these
    # coincide with the builder's compact, reused assignment because every
    # block before the final one is full.
    pool_cap = (-(-n // s) - 1) * (s - 2) if (n > s and s > 2) else 0
    total = [3 * n + pool_cap]
    wd = [np.zeros(total[0], dtype=np.int64)]
    rd = [np.zeros(total[0], dtype=np.int64)]
    zbase = 3 * n
    state = {"count": 0, "depth": 0, "props": 0, "zmax": 0}

    def grow(extra: int) -> int:
        base = total[0]
        total[0] += extra
        wd[0] = np.concatenate([wd[0], np.zeros(extra, dtype=np.int64)])
        rd[0] = np.concatenate([rd[0], np.zeros(extra, dtype=np.int64)])
        return base

    def toffoli(c1, c2, t):
        w, r = wd[0], rd[0]
        if not len(t):
            return
        d = np.maximum(np.maximum(w[c1], w[c2]), np.maximum(w[t], r[t])) + 1
        state["count"] += len(t)
        state["depth"] = max(state["depth"], int(d.max()))
        r[c1] = np.maximum(r[c1], d)
        r[c2] = np.maximum(r[c2], d)
        w[t] = d
        r[t] = 0

    def cnot(c, t):
        if not len(np.atleast_1d(t)):
            return
        w, r = wd[0], rd[0]
        d = np.maximum(w[c], np.maximum(w[t], r[t]))
        r[c] = np.maximum(r[c], d)
        w[t] = d
        r[t] = 0

    a = np.arange(n)
    b = a + n
    g = a + 2 * n
    toffoli(a, b, g)  # generate
    cnot(a, b)  # propagate into b

    def recurse(gq, pq):
        M = len(gq)
        if M <= 1:
            return
        for k in range(1, s):
            idx = np.arange(k, M, s)
            toffoli(gq[idx - 1], pq[idx], gq[idx])
        if M <= s:
            return
        B = -(-M // s)
        state["props"] += (M - B) - (s - 1)
        pbase = grow((B - 1) * (s - 1))  # padded; tail slots untouched

        def chi(jj, k):  # propagate-partial slot of block jj, step k
            return pbase + (jj - 1) * (s - 1) + (k - 1)

        all_j = np.arange(1, B)
        for k in range(1, s):
            jj = all_j[all_j * s + k < M]
            c1 = pq[jj * s] if k == 1 else chi(jj, k - 1)
            toffoli(c1, pq[jj * s + k], chi(jj, k))
        # recurse on block boundaries
        ends = np.minimum(np.arange(B) * s + s - 1, M - 1)
        last_len = M - (B - 1) * s
        next_pq = np.zeros(B, dtype=np.int64)
        if B > 2:
            next_pq[1:-1] = chi(np.arange(1, B - 1), s - 1)
        next_pq[B - 1] = chi(B - 1, last_len - 1) if last_len > 1 else pq[(B - 1) * s]
        recurse(gq[ends], next_pq)
        # finalize: copy the seeds, one Toffoli layer, uncopy
        copies = []  # (seed array, z-slot array)
        for c in range(0, s - 2):  # copy index within a block
            jj = all_j[all_j * s + c + 2 < M]  # blocks with more than c+1 fins
            if not len(jj):
                continue
            z = zbase + (jj - 1) * (s - 2) + c
            cnot(gq[jj * s - 1], z)
            copies.append((gq[jj * s - 1], z))
            state["zmax"] = max(state["zmax"],
                                int(((jj - 1) * (s - 2) + c).max()) + 1)
        for k in range(0, s - 1):
            jj = all_j[all_j * s + k + 1 < M]
            if not len(jj):
                continue
            ctrl = gq[jj * s - 1] if k == 0 else zbase + (jj - 1) * (s - 2) + (k - 1)
            prop = pq[jj * s] if k == 0 else chi(jj, k)
            toffoli(ctrl, prop, gq[jj * s + k])
        for seed, z in reversed(copies):
            cnot(seed, z)
        for k in range(s - 1, 0, -1):
            jj = all_j[all_j * s + k < M]
            c1 = pq[jj * s] if k == 1 else chi(jj, k - 1)
            toffoli(c1, pq[jj * s + k], chi(jj, k))

    recurse(g, b)
    if n > 1:
        cnot(g[: n - 1], b[1:])  # sums
    return AdderResources(state["count"], state["depth"],
                          n + state["props"] + state["zmax"])


# -- simulation ----------------------------------------------------------------


def simulate(circuit: QuantumCircuit, initial) -> list:
    """Apply the gates classically over {0,1}; returns the final assignment.

    `initial` is a sequence assigning every qubit (index = qubit id) or a
    dict mapping qubit ids to bits.
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
    for kind, qs, _ in circuit.gates:
        if kind == TOFFOLI:
            state[qs[2]] ^= state[qs[0]] & state[qs[1]]
        elif kind == CNOT:
            state[qs[1]] ^= state[qs[0]]
        elif kind == NOT:
            state[qs[0]] ^= 1
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return state


def resources(circuit: QuantumCircuit) -> AdderResources:
    """Measured Toffoli count, dependence-chain Toffoli depth, and ancillas.

    Also checks that gates sharing a Toffoli layer label touch disjoint
    qubits (raises LayerOverlapError otherwise).
    """
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
    counter = _DepthCounter()
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
    """Simulate with one big integer per qubit (bit t = trial t's value)."""
    for kind, qs, _ in gates:
        if kind == TOFFOLI:
            vals[qs[2]] ^= vals[qs[0]] & vals[qs[1]]
        elif kind == CNOT:
            vals[qs[1]] ^= vals[qs[0]]
        else:
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


def verify_adder(n: int, s: int, trials: int = 10000,
                 seed: int = 0, circuit: Optional[QuantumCircuit] = None) -> AdderCheckReport:
    """Check sum, carry-out, and scratch restoration against ripple-carry.

    Exhaustive over all (a, b) pairs for n <= 10, otherwise `trials` random
    pairs.  All cases run simultaneously: each qubit's values across cases
    are packed into one big integer, and the expected sum comes from an
    independent bitwise ripple-carry over the same packed integers.  Raises
    ValueError for trials < 1 when the check is not exhaustive.
    """
    exhaustive = n <= 10
    if not exhaustive and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if circuit is None:
        circuit = build_adder(n, s)
    if exhaustive:
        cases = 1 << (2 * n)
        a_bits = [_stripe(i, 2 * n) for i in range(n)]
        b_bits = [_stripe(n + i, 2 * n) for i in range(n)]
    else:
        rng = random.Random(seed)
        cases = trials
        pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(trials)]
        a_bits = [0] * n
        b_bits = [0] * n
        for t, (av, bv) in enumerate(pairs):
            bit = 1 << t
            for i in range(n):
                if (av >> i) & 1:
                    a_bits[i] |= bit
                if (bv >> i) & 1:
                    b_bits[i] |= bit
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
    """Line-oriented gate list: `T a b c`, `CX a b`, `X a`, layer comments."""
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
        else:
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
