"""JSON and Graphviz DOT serialization for prefix circuits.

JSON schema (smallest schema that preserves levels)::

    {
      "n": 4,
      "gates": [{"id": 0, "left": {"kind": "input", "index": 0},
                 "right": {"kind": "input", "index": 1}, "level": 1}, ...],
      "outputs": [{"kind": "input", "index": 0}, ...]
    }

Schema violations, including unknown keys and JSON booleans where an
integer belongs, are reported with the path to the offending field.
"""

from __future__ import annotations

import json

from .core import GATE, INPUT, GateNode, PrefixCircuit, WireRef


class SchemaError(ValueError):
    """JSON did not match the circuit schema; message carries the field path."""


def export_json(circuit: PrefixCircuit) -> str:
    doc = {
        "n": circuit.n,
        "gates": [
            {
                "id": g.id,
                "left": {"kind": g.left.kind, "index": g.left.index},
                "right": {"kind": g.right.kind, "index": g.right.index},
                "level": g.level,
            }
            for g in circuit.gates
        ],
        "outputs": [{"kind": o.kind, "index": o.index} for o in circuit.outputs],
    }
    return json.dumps(doc, indent=1)


def _check_keys(obj, path: str, keys: tuple) -> None:
    """Raises unless `obj` is a JSON object with no keys outside `keys`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected object, got {type(obj).__name__}")
    if obj.keys() - set(keys):
        raise SchemaError(f"{path}: unknown key(s) {sorted(obj.keys() - set(keys))}")


def _ref(obj, path: str) -> WireRef:
    # fast path: at this size a stray key means a missing one, rejected below
    if type(obj) is not dict or len(obj) != 2:
        _check_keys(obj, path, ("kind", "index"))
    kind = obj.get("kind")
    if kind not in (INPUT, GATE):
        raise SchemaError(f"{path}.kind: expected 'input' or 'gate', got {kind!r}")
    index = obj.get("index")
    if type(index) is not int or index < 0:  # bool is an int subclass
        raise SchemaError(f"{path}.index: expected nonnegative integer, got {index!r}")
    return WireRef(kind, index)


def import_json(text: str) -> PrefixCircuit:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError(f"$: not valid JSON ({e})") from e
    _check_keys(doc, "$", ("n", "gates", "outputs"))
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise SchemaError(f"$.n: expected positive integer, got {n!r}")
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise SchemaError("$.gates: expected array")
    gates = []
    for i, g in enumerate(raw_gates):
        path = f"$.gates[{i}]"
        if type(g) is not dict or len(g) != 4:  # fast path, as in _ref
            _check_keys(g, path, ("id", "left", "right", "level"))
        gid = g.get("id")
        if type(gid) is not int or gid != i:
            raise SchemaError(f"{path}.id: expected {i}, got {gid!r}")
        level = g.get("level")
        if type(level) is not int or level < 1:
            raise SchemaError(f"{path}.level: expected positive integer, got {level!r}")
        gates.append(
            GateNode(i, _ref(g.get("left"), path + ".left"),
                     _ref(g.get("right"), path + ".right"), level)
        )
    raw_outputs = doc.get("outputs")
    if not isinstance(raw_outputs, list):
        raise SchemaError("$.outputs: expected array")
    if len(raw_outputs) != n:
        raise SchemaError(f"$.outputs: expected {n} entries, got {len(raw_outputs)}")
    outputs = [_ref(o, f"$.outputs[{i}]") for i, o in enumerate(raw_outputs)]
    try:
        return PrefixCircuit(n, gates, outputs)
    except (ValueError, OverflowError) as e:  # wire ids past int64 overflow
        raise SchemaError(f"$.gates: {e}") from e


def export_dot(circuit: PrefixCircuit, name: str = "prefix") -> str:
    """Graphviz text: inputs as sources, gates rank-grouped by level."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [fontsize=10];"]
    lines.append("  { rank=source;")
    for i in range(circuit.n):
        lines.append(f'    x{i} [shape=box, label="x{i}"];')
    lines.append("  }")
    by_level: dict[int, list[int]] = {}
    for g in circuit.gates:
        by_level.setdefault(g.level, []).append(g.id)
    for level in sorted(by_level):
        lines.append("  { rank=same;")
        for gid in by_level[level]:
            lines.append(f'    g{gid} [shape=circle, label="g{gid}\\nL{level}"];')
        lines.append("  }")

    def node(ref: WireRef) -> str:
        return f"x{ref.index}" if ref.kind == INPUT else f"g{ref.index}"

    for g in circuit.gates:
        lines.append(f"  {node(g.left)} -> g{g.id};")
        lines.append(f"  {node(g.right)} -> g{g.id};")
    for i, o in enumerate(circuit.outputs):
        lines.append(f'  y{i} [shape=plaintext, label="y{i}"];')
        lines.append(f"  {node(o)} -> y{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
