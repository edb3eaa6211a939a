"""JSON formats for spaces, operation tables and reports.

Space format, one JSON object (also the JSONL line format used by the
enumerator)::

    {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}

Operation format; every subset of the space must appear as a key, the
key being the JSON encoding of its sorted label list::

    {"name": "custom1", "table": {"[]": [], "[\\"a\\"]": ["a", "b"], ...}}

Emission is canonical (fixed key order, opens sorted by mask, members in
point order), so parse and emit round-trip byte for byte.
"""

from __future__ import annotations

import json
from typing import Any

from .bits import MAX_POINTS
from .ops import Operation, OperationError
from .space import GroundSet, Topology


class SchemaError(ValueError):
    """Malformed input file or configuration; maps to exit code 2."""


def space_to_dict(top: Topology) -> dict:
    return {
        "points": list(top.ground.labels),
        "opens": [top.ground.labels_of_mask(m) for m in top.opens],
    }


def space_from_dict(data: Any) -> Topology:
    if not isinstance(data, dict):
        raise SchemaError("space document must be a JSON object")
    points = data.get("points")
    opens = data.get("opens")
    if not isinstance(points, list) or not all(isinstance(x, str) for x in points):
        raise SchemaError("field 'points' must be a list of strings")
    if len(set(points)) != len(points):
        raise SchemaError("point labels must be distinct")
    if len(points) > MAX_POINTS:
        raise SchemaError(f"ground sets are capped at {MAX_POINTS} points; this one has {len(points)}")
    if not isinstance(opens, list) or not all(isinstance(o, list) for o in opens):
        raise SchemaError("field 'opens' must be a list of label lists")
    ground = GroundSet(tuple(points))
    masks = []
    for entry in opens:
        try:
            masks.append(ground.mask_of_labels(entry))
        except KeyError as exc:
            raise SchemaError(f"open set {entry!r} mentions an {exc.args[0]}") from None
    try:
        return Topology(ground, masks)
    except ValueError as exc:  # the constructor names the violated axiom
        raise SchemaError(str(exc)) from None


def dumps_space(top: Topology) -> str:
    return json.dumps(space_to_dict(top))


def loads_space(text: str) -> Topology:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return space_from_dict(data)


def parse_space(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_space(fh.read())


def write_space(top: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_space(top) + "\n")


def _subset_key(ground: GroundSet, mask: int) -> str:
    return json.dumps(ground.labels_of_mask(mask), separators=(",", ":"))


def operation_to_dict(op: Operation) -> dict:
    ground = op.topology.ground
    return {
        "name": op.name,
        "table": {
            _subset_key(ground, a): ground.labels_of_mask(op.table[a])
            for a in op.topology.subsets()
        },
    }


def operation_from_dict(data: Any, top: Topology) -> Operation:
    if not isinstance(data, dict):
        raise SchemaError("operation document must be a JSON object")
    name = data.get("name")
    raw = data.get("table")
    if not isinstance(name, str):
        raise SchemaError("field 'name' must be a string")
    if not isinstance(raw, dict):
        raise SchemaError("field 'table' must be an object keyed by subsets")
    ground = top.ground
    table: dict[int, int] = {}
    for key, value in raw.items():
        try:
            labels = json.loads(key)
        except json.JSONDecodeError:
            raise SchemaError(f"table key {key!r} is not a JSON array of labels") from None
        if not isinstance(labels, list):
            raise SchemaError(f"table key {key!r} is not a JSON array of labels")
        try:
            mask = ground.mask_of_labels(labels)
        except KeyError as exc:
            raise SchemaError(f"table key {key!r} mentions an {exc.args[0]}") from None
        if mask in table:
            raise SchemaError(f"subset {ground.labels_of_mask(mask)} appears twice in the table")
        if not isinstance(value, list):
            raise SchemaError(f"table value for {key!r} must be a list of labels")
        try:
            table[mask] = ground.mask_of_labels(value)
        except KeyError as exc:
            raise SchemaError(f"table value for {key!r} mentions an {exc.args[0]}") from None
    missing = [a for a in top.subsets() if a not in table]
    if missing:
        raise SchemaError(
            f"table is missing subset {ground.labels_of_mask(missing[0])}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )
    try:
        return Operation(top, [table[a] for a in top.subsets()], name)
    except OperationError as exc:  # the constructor's one check names the witness
        raise SchemaError(
            f"table violates the operation laws: {exc.condition} "
            f"(witness subset {ground.labels_of_mask(exc.witness)})"
        ) from None


def parse_operation(path: str, top: Topology) -> Operation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    return operation_from_dict(data, top)


def canonical_json(data: Any) -> str:
    """Stable rendering used for reports: keys in insertion order, one
    object per call, newline-terminated."""
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
