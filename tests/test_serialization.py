"""JSON round-trips, schema errors, and DOT output."""

import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixcircuits as pc
from prefixcircuits import SchemaError, export_dot, export_json, import_json

# -- the GateNode/WireRef object view of a circuit, which the library no
# longer has; only the reference copies below read it ------------------------

INPUT = "input"
GATE = "gate"


class WireRef(NamedTuple):
    kind: str
    index: int


class GateNode(NamedTuple):
    id: int
    left: WireRef
    right: WireRef
    level: int


def _flatten(ref: WireRef, n: int) -> int:
    if ref.kind == INPUT:
        if not 0 <= ref.index < n:
            raise pc.CircuitStructureError(f"input index {ref.index} out of range")
        return ref.index
    return n + ref.index


def _unflatten(wire: int, n: int) -> WireRef:
    return WireRef(INPUT, wire) if wire < n else WireRef(GATE, wire - n)


class PrefixCircuit(pc.PrefixCircuit):
    """Builds a library circuit from GateNode and WireRef objects; `view`
    gives one that reads as them."""

    __slots__ = ()

    def __new__(cls, n, gates, outputs):
        # element-wise stores into int64 arrays: an input index >= n raises
        # CircuitStructureError and a wire id past int64 OverflowError, in
        # the order the fields are met
        gates = list(gates)
        lefts, rights, levels = (np.empty(len(gates), dtype=np.int64) for _ in range(3))
        for i, g in enumerate(gates):
            lefts[i] = _flatten(g.left, n)
            rights[i] = _flatten(g.right, n)
            levels[i] = g.level
        outs = np.array([_flatten(o, n) for o in outputs], dtype=np.int64)
        return pc.PrefixCircuit.from_arrays(n, lefts, rights, levels, outs)

    @classmethod
    def view(cls, c: pc.PrefixCircuit) -> "PrefixCircuit":
        return cls.from_arrays(c.n, c._lefts, c._rights, c._levels, c._outs)

    @property
    def gates(self) -> tuple:
        return tuple(GateNode(g, _unflatten(left, self.n), _unflatten(right, self.n), level)
                     for g, (left, right, level) in enumerate(zip(
                         self._lefts.tolist(), self._rights.tolist(), self._levels.tolist())))

    @property
    def outputs(self) -> tuple:
        return tuple(_unflatten(w, self.n) for w in self._outs.tolist())


# -- reference copies: the per-gate exporters and importer that went through
# the GateNode/WireRef views, kept verbatim as the differential oracle --------


def _ref_export_json(circuit: PrefixCircuit) -> str:
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


def _ref_check_keys(obj, path: str, keys: tuple) -> None:
    """Raises unless `obj` is a JSON object with no keys outside `keys`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected object, got {type(obj).__name__}")
    if obj.keys() - set(keys):
        raise SchemaError(f"{path}: unknown key(s) {sorted(obj.keys() - set(keys))}")


def _ref_ref(obj, path: str) -> WireRef:
    # fast path: at this size a stray key means a missing one, rejected below
    if type(obj) is not dict or len(obj) != 2:
        _ref_check_keys(obj, path, ("kind", "index"))
    kind = obj.get("kind")
    if kind not in (INPUT, GATE):
        raise SchemaError(f"{path}.kind: expected 'input' or 'gate', got {kind!r}")
    index = obj.get("index")
    if type(index) is not int or index < 0:  # bool is an int subclass
        raise SchemaError(f"{path}.index: expected nonnegative integer, got {index!r}")
    return WireRef(kind, index)


def _ref_import_json(text: str) -> PrefixCircuit:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError(f"$: not valid JSON ({e})") from e
    _ref_check_keys(doc, "$", ("n", "gates", "outputs"))
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
            _ref_check_keys(g, path, ("id", "left", "right", "level"))
        gid = g.get("id")
        if type(gid) is not int or gid != i:
            raise SchemaError(f"{path}.id: expected {i}, got {gid!r}")
        level = g.get("level")
        if type(level) is not int or level < 1:
            raise SchemaError(f"{path}.level: expected positive integer, got {level!r}")
        gates.append(
            GateNode(i, _ref_ref(g.get("left"), path + ".left"),
                     _ref_ref(g.get("right"), path + ".right"), level)
        )
    raw_outputs = doc.get("outputs")
    if not isinstance(raw_outputs, list):
        raise SchemaError("$.outputs: expected array")
    if len(raw_outputs) != n:
        raise SchemaError(f"$.outputs: expected {n} entries, got {len(raw_outputs)}")
    outputs = [_ref_ref(o, f"$.outputs[{i}]") for i, o in enumerate(raw_outputs)]
    try:
        return PrefixCircuit(n, gates, outputs)
    except (ValueError, OverflowError) as e:  # wire ids past int64 overflow
        raise SchemaError(f"$.gates: {e}") from e


def _ref_export_dot(circuit: PrefixCircuit) -> str:
    """Graphviz text: inputs as sources, gates rank-grouped by level."""
    lines = ["digraph prefix {", "  rankdir=TB;", "  node [fontsize=10];"]
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


GENERATORS = {
    "serial": pc.serial,
    "sklansky": pc.sklansky,
    "kogge-stone": pc.kogge_stone,
    "brent-kung": pc.brent_kung,
    "ladner-fischer-0": lambda n: pc.ladner_fischer(n, 0),
    "ladner-fischer-2": lambda n: pc.ladner_fischer(n, 2),
    "kronecker-2": lambda n: pc.kronecker_circuit(n, 2),
    "kronecker-5": lambda n: pc.kronecker_circuit(n, 5),
}


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_every_generator_is_identity(self, name):
        for n in (4, 5, 31, 64, 100):
            c = GENERATORS[name](n)
            text = export_json(c)
            back = import_json(text)
            assert back == c
            assert export_json(back) == text

    def test_serial_3(self):
        c = pc.serial(3)
        assert import_json(export_json(c)) == c

    def test_kronecker_100_3(self):
        c = pc.kronecker_circuit(100, 3)
        assert import_json(export_json(c)) == c

    def test_all_generators_spot(self):
        for c in (pc.sklansky(13), pc.kogge_stone(9), pc.brent_kung(21),
                  pc.ladner_fischer(17, 2)):
            assert import_json(export_json(c)) == c


DIFF_SIZES = [*range(1, 131), 255, 256, 511, 512]


class TestMatchesReference:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_bytes_identical_and_round_trip(self, name):
        for n in DIFF_SIZES:
            if name == "ladner-fischer-2" and n < 3:  # k = 2 needs ceil(log2 n) >= 2
                continue
            c = GENERATORS[name](n)
            text = export_json(c)
            assert text == _ref_export_json(PrefixCircuit.view(c)), (name, n)
            assert export_dot(c) == _ref_export_dot(PrefixCircuit.view(c)), (name, n)
            assert import_json(text) == _ref_import_json(text) == c, (name, n)

    @pytest.mark.parametrize("edit", [
        # the first failing ref, in flattening order, names the error
        lambda d: (d["gates"][0]["left"].update(kind="gate", index=2 ** 70),
                   d["gates"][1]["right"].update(index=9)),
        lambda d: (d["gates"][0]["right"].update(index=9),
                   d["gates"][1]["left"].update(index=2 ** 70)),
        lambda d: (d["gates"][1].update(level=2 ** 70), d["outputs"][0].update(index=9)),
        lambda d: (d["outputs"][0].update(kind="gate", index=2 ** 63 - 2),
                   d["outputs"][2].update(kind="input", index=9)),
        lambda d: d["outputs"][1].update(kind="gate", index=2 ** 63 - 2),
        lambda d: d["gates"][1]["left"].update(index=2 ** 63 - 3),
        lambda d: d["gates"][0]["left"].update(index=3),
        lambda d: d["outputs"][2].update(kind="input", index=3),
    ], ids=["overflow-then-range", "range-then-overflow", "level-overflow",
            "output-range-before-overflow", "output-overflow", "wire-past-int64",
            "input-n", "output-input-n"])
    def test_range_and_overflow_errors_in_reference_order(self, edit):
        doc = json.loads(export_json(pc.serial(3)))
        edit(doc)
        text = json.dumps(doc)
        with pytest.raises(SchemaError) as want:
            _ref_import_json(text)
        with pytest.raises(SchemaError) as got:
            import_json(text)
        assert str(got.value) == str(want.value)


KRONECKER_3_2_JSON = """{
 "n": 3,
 "gates": [
  {
   "id": 0,
   "left": {
    "kind": "input",
    "index": 0
   },
   "right": {
    "kind": "input",
    "index": 1
   },
   "level": 1
  },
  {
   "id": 1,
   "left": {
    "kind": "gate",
    "index": 0
   },
   "right": {
    "kind": "input",
    "index": 2
   },
   "level": 2
  }
 ],
 "outputs": [
  {
   "kind": "input",
   "index": 0
  },
  {
   "kind": "gate",
   "index": 0
  },
  {
   "kind": "gate",
   "index": 1
  }
 ]
}"""

KRONECKER_3_2_DOT = r"""digraph prefix {
  rankdir=TB;
  node [fontsize=10];
  { rank=source;
    x0 [shape=box, label="x0"];
    x1 [shape=box, label="x1"];
    x2 [shape=box, label="x2"];
  }
  { rank=same;
    g0 [shape=circle, label="g0\nL1"];
  }
  { rank=same;
    g1 [shape=circle, label="g1\nL2"];
  }
  x0 -> g0;
  x1 -> g0;
  g0 -> g1;
  x2 -> g1;
  y0 [shape=plaintext, label="y0"];
  x0 -> y0 [style=dashed];
  y1 [shape=plaintext, label="y1"];
  g0 -> y1 [style=dashed];
  y2 [shape=plaintext, label="y2"];
  g1 -> y2 [style=dashed];
}
"""

SERIAL_1_JSON = """{
 "n": 1,
 "gates": [],
 "outputs": [
  {
   "kind": "input",
   "index": 0
  }
 ]
}"""

SERIAL_1_DOT = """digraph prefix {
  rankdir=TB;
  node [fontsize=10];
  { rank=source;
    x0 [shape=box, label="x0"];
  }
  y0 [shape=plaintext, label="y0"];
  x0 -> y0 [style=dashed];
}
"""


class TestGoldens:
    @pytest.mark.parametrize("circuit, json_text, dot_text", [
        (pc.kronecker_circuit(3, 2), KRONECKER_3_2_JSON, KRONECKER_3_2_DOT),
        (pc.serial(1), SERIAL_1_JSON, SERIAL_1_DOT),
    ], ids=["kronecker-3-2", "serial-1"])
    def test_literal_text(self, circuit, json_text, dot_text):
        assert export_json(circuit) == json_text
        assert export_dot(circuit) == dot_text
        assert import_json(json_text) == circuit


class TestSchemaErrors:
    def test_forward_level_reference(self):
        c = pc.serial(3)
        doc = json.loads(export_json(c))
        doc["gates"][0]["level"] = 5  # now gate 1 (level 2) reads a level-5 gate
        with pytest.raises(SchemaError, match="gates"):
            import_json(json.dumps(doc))

    def test_bad_kind_reports_path(self):
        c = pc.serial(2)
        doc = json.loads(export_json(c))
        doc["gates"][0]["left"]["kind"] = "wire"
        with pytest.raises(SchemaError, match=r"\$\.gates\[0\]\.left\.kind"):
            import_json(json.dumps(doc))

    def test_missing_n(self):
        with pytest.raises(SchemaError, match=r"\$\.n"):
            import_json('{"gates": [], "outputs": []}')

    def test_wrong_output_count(self):
        with pytest.raises(SchemaError, match="outputs"):
            import_json('{"n": 2, "gates": [], "outputs": [{"kind": "input", "index": 0}]}')

    def test_not_json(self):
        with pytest.raises(SchemaError):
            import_json("}{")

    def test_non_integer_level(self):
        c = pc.serial(2)
        doc = json.loads(export_json(c))
        doc["gates"][0]["level"] = "one"
        with pytest.raises(SchemaError, match="level"):
            import_json(json.dumps(doc))


    @pytest.mark.parametrize("edit, where", [
        (lambda d: d.update(n=True), r"\$\.n"),
        (lambda d: d["gates"][0].update(id=False), r"\$\.gates\[0\]\.id"),
        (lambda d: d["gates"][1].update(level=True), r"\$\.gates\[1\]\.level"),
        (lambda d: d["gates"][0]["left"].update(index=False), r"\.left\.index"),
        (lambda d: d["outputs"][0].update(index=False), r"\$\.outputs\[0\]\.index"),
        (lambda d: d.update(comment="hi"), r"\$: unknown key"),
        (lambda d: d["gates"][0].update(colour=1), r"\$\.gates\[0\]: unknown key"),
        (lambda d: d["outputs"][2].update(extra=0), r"\$\.outputs\[2\]: unknown key"),
    ], ids=["bool-n", "bool-id", "bool-level", "bool-index", "bool-output",
            "key-top", "key-gate", "key-output"])
    def test_booleans_and_unknown_keys_rejected(self, edit, where):
        doc = json.loads(export_json(pc.serial(3)))
        edit(doc)
        with pytest.raises(SchemaError, match=where):
            import_json(json.dumps(doc))


KEYS = ["n", "gates", "outputs", "id", "left", "right", "level", "kind", "index"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | st.sampled_from(["input", "gate", ""]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + ["x"]), inner, max_size=4),
    max_leaves=10,
)


def _slots(node):
    """Every (container, key) pair inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def damaged_documents(draw):
    """A valid export with one to three fields replaced, removed, or added."""
    gen = draw(st.sampled_from(sorted(GENERATORS)))
    doc = json.loads(export_json(GENERATORS[gen](draw(st.integers(4, 7)))))
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        if action == "replace":
            node[key] = draw(JSON_VALUES)
        elif action == "remove":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS + ["x"]))] = draw(JSON_VALUES)
        else:
            node.append(draw(JSON_VALUES))
    return json.dumps(doc)


@st.composite
def retyped_fields(draw):
    """A valid export with one or two integer fields set to a small integer
    or a boolean: the edges of the level, index and input-range checks."""
    gen = draw(st.sampled_from(sorted(GENERATORS)))
    doc = json.loads(export_json(GENERATORS[gen](draw(st.integers(4, 7)))))
    leaves = [(node, key) for node, key in _slots(doc) if type(node[key]) is int]
    for _ in range(draw(st.integers(1, 2))):
        node, key = draw(st.sampled_from(leaves))
        node[key] = draw(st.integers(-1, 9) | st.booleans())
    return json.dumps(doc)


class TestImportFuzz:
    @given(st.one_of(st.text(max_size=40), JSON_VALUES.map(json.dumps),
                     damaged_documents()))
    @settings(max_examples=400, deadline=None)
    def test_raises_only_schema_error(self, text):
        try:
            c = import_json(text)
        except SchemaError:
            return
        assert import_json(export_json(c)) == c

    @given(st.one_of(st.text(max_size=40), JSON_VALUES.map(json.dumps),
                     damaged_documents(), retyped_fields()))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_import(self, text):
        def outcome(importer):
            try:
                return importer(text)
            except SchemaError as e:
                return str(e)

        got, want = outcome(import_json), outcome(_ref_import_json)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"n": 1, "gates": [], "outputs": [{"kind": "gate", "index": 1e400}]}',
        '{"n": 1, "gates": [], "outputs": [{"kind": "gate", "index": %d}]}' % 2 ** 70,
    ])
    def test_nesting_and_huge_numbers_are_schema_errors(self, text):
        with pytest.raises(SchemaError):
            import_json(text)


class TestDot:
    def test_nodes_and_edges(self):
        text = export_dot(pc.serial(3))
        assert "digraph" in text
        assert "x0" in text and "x2" in text
        assert "g0" in text and "g1" in text
        assert "x0 -> g0;" in text
        assert "g0 -> g1;" in text
        assert "y2" in text

    def test_gate_count_matches(self):
        c = pc.kronecker_circuit(27, 3)
        text = export_dot(c)
        assert text.count("shape=circle") == c.size

    def test_graph_is_named_prefix(self):
        assert export_dot(pc.serial(2)).startswith("digraph prefix {\n")
