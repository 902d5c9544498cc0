"""JSON round-trips, schema errors, and DOT output."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixcircuits as pc
from prefixcircuits import SchemaError, export_dot, export_json, import_json


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
            assert back == c and back.gates == c.gates and back.outputs == c.outputs
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
