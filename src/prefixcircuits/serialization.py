"""JSON and Graphviz DOT serialization for prefix circuits.

JSON schema (smallest schema that preserves levels)::

    {
      "n": 4,
      "gates": [{"id": 0, "left": {"kind": "input", "index": 0},
                 "right": {"kind": "input", "index": 1}, "level": 1}, ...],
      "outputs": [{"kind": "input", "index": 0}, ...]
    }

A ref is the JSON form of a flat wire id of :mod:`.core`: input ``i`` is
wire ``i`` and gate ``g`` is wire ``n + g``; no other module knows this
format.  Export and import work on the circuit's four wire arrays; the JSON
text is byte for byte that of ``json.dumps(doc, indent=1)``.  Schema
violations, including unknown keys and JSON booleans where an integer
belongs, are reported with the path to the offending field.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import PrefixCircuit

_INPUT, _GATE = _KINDS = ("input", "gate")
_GATE_KEYS = ("id", "left", "right", "level")
_GATE_JSON = ('  {\n   "id": %d,\n   "left": {\n    "kind": "%s",\n    "index": %d\n   },'
              '\n   "right": {\n    "kind": "%s",\n    "index": %d\n   },\n   "level": %d\n  }')
_OUTPUT_JSON = '  {\n   "kind": "%s",\n   "index": %d\n  }'


class SchemaError(ValueError):
    """JSON did not match the circuit schema; message carries the field path."""


def _kinds_and_indices(wires: np.ndarray, n: int) -> tuple:
    """The JSON refs' kind and index lists for an array of wire ids."""
    is_gate = wires >= n
    return list(map(_KINDS.__getitem__, is_gate.tolist())), (wires - n * is_gate).tolist()


def export_json(circuit: PrefixCircuit) -> str:
    n, G = circuit.n, circuit.size
    lk, li = _kinds_and_indices(circuit._lefts, n)
    rk, ri = _kinds_and_indices(circuit._rights, n)
    gates = ",\n".join(map(_GATE_JSON.__mod__, zip(
        range(G), lk, li, rk, ri, circuit._levels.tolist())))
    outputs = ",\n".join(map(_OUTPUT_JSON.__mod__, zip(*_kinds_and_indices(circuit._outs, n))))
    gates = f"[\n{gates}\n ]" if G else "[]"
    return f'{{\n "n": {n},\n "gates": {gates},\n "outputs": [\n{outputs}\n ]\n}}'


def _check_keys(obj, path: str, keys: tuple) -> None:
    """Raises unless `obj` is a JSON object with no keys outside `keys`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected object, got {type(obj).__name__}")
    if obj.keys() - set(keys):
        raise SchemaError(f"{path}: unknown key(s) {sorted(obj.keys() - set(keys))}")


def _ref(obj, path: str) -> tuple:
    """(kind, index) of a JSON wire ref; its range is checked later."""
    # fast path: at this size a stray key means a missing one, rejected below
    if type(obj) is not dict or len(obj) != 2:
        _check_keys(obj, path, ("kind", "index"))
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise SchemaError(f"{path}.kind: expected 'input' or 'gate', got {kind!r}")
    index = obj.get("index")
    if type(index) is not int or index < 0:  # bool is an int subclass
        raise SchemaError(f"{path}.index: expected nonnegative integer, got {index!r}")
    return kind, index


def _bulk_arrays(n: int, raw_gates: list, raw_outputs) -> tuple | None:
    """(lefts, rights, levels, outs), or None unless every field passes the
    checks of `_raise_first_error` and every wire id fits int64."""
    try:
        ids, lefts, rights, levels = (list(map(itemgetter(k), raw_gates)) for k in _GATE_KEYS)
        refs = lefts + rights + raw_outputs
        kinds, indices = (list(map(itemgetter(k), refs)) for k in ("kind", "index"))
        if (len(raw_outputs) != n or set(map(len, raw_gates)) - {4} or set(map(len, refs)) - {2}
                or set(kinds) - set(_KINDS) or set(map(type, ids + levels + indices)) - {int}
                or ids != list(range(len(ids)))):
            return None
        is_gate = np.array(list(map(_GATE.__eq__, kinds)))
        wires, levels = np.array(indices, dtype=np.int64), np.array(levels, dtype=np.int64)
    except (KeyError, TypeError, OverflowError):  # not a list or dict, key missing, unhashable
        return None
    if (wires.min() < 0 or levels.size and levels.min() < 1 or (wires[~is_gate] >= n).any()
            or (wires[is_gate] > 2 ** 63 - 1 - n).any()):
        return None
    wires[is_gate] += n
    G = len(ids)
    return wires[:G], wires[G:2 * G], levels, wires[2 * G:]


def _raise_first_error(n: int, raw_gates: list, raw_outputs) -> None:
    """Raises the SchemaError for the first bad field of a document that
    `_bulk_arrays` rejected; input range and int64 overflow come last."""
    fields = []  # (kind, index) refs and ("level", level), in array order
    for i, g in enumerate(raw_gates):
        path = f"$.gates[{i}]"
        if type(g) is not dict or len(g) != 4:  # fast path, as in _ref
            _check_keys(g, path, _GATE_KEYS)
        gid = g.get("id")
        if type(gid) is not int or gid != i:
            raise SchemaError(f"{path}.id: expected {i}, got {gid!r}")
        level = g.get("level")
        if type(level) is not int or level < 1:
            raise SchemaError(f"{path}.level: expected positive integer, got {level!r}")
        fields += (_ref(g.get("left"), path + ".left"),
                   _ref(g.get("right"), path + ".right"), ("level", level))
    if not isinstance(raw_outputs, list):
        raise SchemaError("$.outputs: expected array")
    if len(raw_outputs) != n:
        raise SchemaError(f"$.outputs: expected {n} entries, got {len(raw_outputs)}")
    outputs = [_ref(o, f"$.outputs[{i}]") for i, o in enumerate(raw_outputs)]
    # the error names the first field out of range or past int64 as the
    # arrays are filled: gate by gate, then the outputs, inputs before gates
    for kind, index in fields + sorted(outputs, key=lambda ref: ref[0] == _GATE):
        if kind == _INPUT and index >= n:
            raise SchemaError(f"$.gates: input index {index} out of range")
        try:
            np.int64(index + n * (kind == _GATE))
        except OverflowError as e:
            raise SchemaError(f"$.gates: {e}") from e
    raise AssertionError("bulk import rejected a document that passes every check")


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
    arrays = _bulk_arrays(n, raw_gates, doc.get("outputs"))
    if arrays is None:
        _raise_first_error(n, raw_gates, doc.get("outputs"))
    try:
        return PrefixCircuit.from_arrays(n, *arrays)
    except ValueError as e:
        raise SchemaError(f"$.gates: {e}") from e


def export_dot(circuit: PrefixCircuit) -> str:
    """Graphviz text of ``digraph prefix``: inputs as sources, gates ranked by level."""
    n, G = circuit.n, circuit.size
    lines = ["digraph prefix {", "  rankdir=TB;", "  node [fontsize=10];", "  { rank=source;"]
    lines += [f'    x{i} [shape=box, label="x{i}"];' for i in range(n)]
    lines.append("  }")
    order = np.argsort(circuit._levels, kind="stable").tolist()
    for level, gs in groupby(order, circuit._levels.tolist().__getitem__):
        lines += ["  { rank=same;", *(f'    g{g} [shape=circle, label="g{g}\\nL{level}"];'
                                      for g in gs), "  }"]
    names = [f"x{i}" for i in range(n)] + [f"g{g}" for g in range(G)]
    for g, l, r in zip(range(G), circuit._lefts.tolist(), circuit._rights.tolist()):
        lines += [f"  {names[l]} -> g{g};", f"  {names[r]} -> g{g};"]
    for i, o in enumerate(circuit._outs.tolist()):
        lines += [f'  y{i} [shape=plaintext, label="y{i}"];',
                  f"  {names[o]} -> y{i} [style=dashed];"]
    lines.append("}")
    return "\n".join(lines) + "\n"
