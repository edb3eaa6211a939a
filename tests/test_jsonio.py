import json
from pathlib import Path

import pytest

from topolab import builtin, catalog, chain3
from topolab.jsonio import (
    SchemaError,
    dumps_space,
    loads_space,
    operation_from_dict,
    operation_to_dict,
    parse_operation,
    parse_space,
    space_from_dict,
    space_to_dict,
    write_space,
)

DATA = Path(__file__).parent / "data"


def test_space_round_trip_golden():
    text = (DATA / "c3.json").read_text(encoding="utf-8").strip()
    top = loads_space(text)
    assert top == chain3()
    assert dumps_space(top) == text


def test_space_file_round_trip(tmp_path, s2):
    path = tmp_path / "s2.json"
    write_space(s2, str(path))
    assert parse_space(str(path)) == s2
    assert path.read_text(encoding="utf-8") == dumps_space(s2) + "\n"


def test_space_loader_rejects_bad_documents():
    with pytest.raises(SchemaError, match="JSON"):
        loads_space("{nope")
    with pytest.raises(SchemaError, match="points"):
        space_from_dict({"points": "ab", "opens": []})
    with pytest.raises(SchemaError, match="distinct"):
        space_from_dict({"points": ["a", "a"], "opens": [[], ["a", "a"]]})
    with pytest.raises(SchemaError, match="opens"):
        space_from_dict({"points": ["a"], "opens": "x"})
    with pytest.raises(SchemaError, match="unknown point"):
        space_from_dict({"points": ["a"], "opens": [[], ["z"]]})


def test_space_loader_names_the_violated_axiom():
    with pytest.raises(SchemaError, match="whole space"):
        space_from_dict({"points": ["a", "b"], "opens": [[], ["a"]]})
    with pytest.raises(SchemaError, match="empty set"):
        space_from_dict({"points": ["a", "b"], "opens": [["a"], ["a", "b"]]})
    with pytest.raises(SchemaError, match=r"union: \{a,b\} is a union of members"):
        space_from_dict({
            "points": ["a", "b", "c"],
            "opens": [[], ["a"], ["b"], ["a", "b", "c"]],
        })
    with pytest.raises(SchemaError, match=r"intersection: \{b\} is an intersection of members"):
        space_from_dict({
            "points": ["a", "b", "c"],
            "opens": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
        })


def test_space_dict_shape(s2):
    assert space_to_dict(s2) == {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}


def test_operation_round_trip(s2):
    op = catalog(s2)["scl"]
    doc = operation_to_dict(op)
    assert set(doc["table"]) == {"[]", '["a"]', '["b"]', '["a","b"]'}
    back = operation_from_dict(doc, s2)
    assert back.table == op.table and back.name == "scl"


def test_operation_loader_missing_subset(s2):
    doc = operation_to_dict(catalog(s2)["cl"])
    del doc["table"]['["a"]']
    with pytest.raises(SchemaError, match="missing subset"):
        operation_from_dict(doc, s2)


def test_operation_loader_bad_keys(s2):
    doc = operation_to_dict(catalog(s2)["cl"])
    doc["table"]["not json"] = []
    with pytest.raises(SchemaError, match="JSON array"):
        operation_from_dict(doc, s2)
    doc = operation_to_dict(catalog(s2)["cl"])
    doc["table"]['["z"]'] = []
    with pytest.raises(SchemaError, match="unknown point"):
        operation_from_dict(doc, s2)
    doc = operation_to_dict(catalog(s2)["cl"])
    doc["table"]['["b","a"]'] = ["a", "b"]  # same subset, different spelling
    with pytest.raises(SchemaError, match="twice"):
        operation_from_dict(doc, s2)


def test_operation_loader_names_violation_and_witness(s2):
    doc = operation_to_dict(catalog(s2)["identity"])
    doc["table"]['["a"]'] = []  # drops the interior of {a}
    with pytest.raises(SchemaError) as err:
        operation_from_dict(doc, s2)
    assert "interior" in str(err.value) and "['a']" in str(err.value)
    doc = operation_to_dict(catalog(s2)["identity"])
    doc["table"]["[]"] = ["a"]
    with pytest.raises(SchemaError, match="empty set"):
        operation_from_dict(doc, s2)


def test_parse_operation_file(tmp_path, s2):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operation_to_dict(builtin(s2, "introcl"))), encoding="utf-8")
    op = parse_operation(str(path), s2)
    assert op.table == builtin(s2, "introcl").table
    path.write_text("{", encoding="utf-8")
    with pytest.raises(SchemaError, match="JSON"):
        parse_operation(str(path), s2)
