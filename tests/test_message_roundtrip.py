"""Property tests: every protocol payload survives the wire codec.

For each registered wire type, Hypothesis builds payloads from the
dataclass field annotations (including nested ``DCRTEntry``/``DocInfo``
values and empty/large collections) and asserts that
``from_wire(json(to_wire(p))) == p`` — tuples stay tuples, nested types
come back as their own classes, floats round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay import messages as m
from repro.overlay.metadata import DCRTEntry
from repro.transport import Message, decode_frame, encode_frame
from repro.transport.wire import HEADER_BYTES, encode_envelope

WIRE_CLASSES = sorted(m.WIRE_TYPES.values(), key=lambda cls: cls.__name__)


def _strategy_for(annotation):
    if annotation is int:
        return st.integers(min_value=-(2**31), max_value=2**31 - 1)
    if annotation is float:
        return st.floats(allow_nan=False, allow_infinity=False, width=64)
    if annotation is bool:
        return st.booleans()
    if annotation is str:
        return st.text(max_size=16)
    if dataclasses.is_dataclass(annotation):
        return _payload_strategy(annotation)
    origin = typing.get_origin(annotation)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=4).map(tuple)
        return st.tuples(*(_strategy_for(arg) for arg in args))
    raise NotImplementedError(
        f"no strategy for field annotation {annotation!r}"
    )


def _payload_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            field.name: _strategy_for(hints[field.name])
            for field in dataclasses.fields(cls)
        },
    )


def test_every_message_type_is_registered():
    # The codec registry must cover the full protocol: every dataclass
    # exported by the messages module is a wire type.
    exported = {
        name
        for name in m.__all__
        if isinstance(getattr(m, name, None), type)
        and dataclasses.is_dataclass(getattr(m, name))
    }
    assert exported == set(m.WIRE_TYPES)
    assert len(WIRE_CLASSES) >= 18


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wire_roundtrip_identity(cls, data):
    payload = data.draw(_payload_strategy(cls))
    record = json.loads(json.dumps(m.to_wire(payload)))
    decoded = m.from_wire(record)
    assert type(decoded) is cls
    assert decoded == payload


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_wire_roundtrip_boundary_payloads(cls):
    """Defaults-only and extreme-scalar payloads survive the codec."""
    hints = typing.get_type_hints(cls)
    boundary: dict[str, object] = {}
    for field in dataclasses.fields(cls):
        annotation = hints[field.name]
        if annotation is int:
            boundary[field.name] = 2**31 - 1
        elif annotation is float:
            boundary[field.name] = 0.1 + 0.2  # not exactly representable
        elif annotation is bool:
            boundary[field.name] = False
        elif annotation is DCRTEntry:
            boundary[field.name] = DCRTEntry(0, 2**31 - 1)
        elif typing.get_origin(annotation) is tuple:
            boundary[field.name] = ()
        else:  # pragma: no cover - future field types
            raise NotImplementedError(annotation)
    payload = cls(**boundary)
    assert m.from_wire(json.loads(json.dumps(m.to_wire(payload)))) == payload
    message = Message(1, 2, "test", payload)
    assert decode_frame(encode_frame(message)) == message


def test_unregistered_payload_rejected():
    with pytest.raises(TypeError):
        m.to_wire(object())
    with pytest.raises(TypeError):
        m.from_wire({"type": "NotAMessage", "fields": {}})


# ----------------------------------------------------------------------
# differential: the generated per-type codec against the recursive one
# ----------------------------------------------------------------------
#
# The recursive codec as it was before each wire type got a generated
# encoder and decoder, kept verbatim as the oracle: same records, same
# frame bytes, same accept/reject decision.  It coerced the fields of a
# nested ``DCRTEntry`` / ``DocInfo`` with ``int()``; the hostile values
# below never build a tagged dict, so that difference (tested in
# ``tests/test_wire_envelope.py``) stays out of the comparison.

WIRE_TYPES = m.WIRE_TYPES
DocInfo = m.DocInfo

#: payload type name -> field name -> test the decoded value must pass.
_FIELD_CHECKS: dict[str, dict[str, typing.Callable[[object], bool]]] = {}

#: scalar annotation -> test; ``type(v) is int`` refuses bools, as the
#: envelope check does.
_TYPE_CHECKS: dict[str, typing.Callable[[object], bool]] = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) is float or type(v) is int,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "DCRTEntry": lambda v: type(v) is DCRTEntry,
    "DocInfo": lambda v: type(v) is DocInfo,
}


def _compile_check(annotation: str) -> typing.Callable[[object], bool]:
    """The test a decoded value of ``annotation`` must pass.

    ``tuple[X, ...]`` checks every item against ``X``.  The only
    fixed-length tuples the payloads use are pairs with a scalar first,
    ``tuple[int, Y]``: the length and each position are checked.
    """
    if not annotation.startswith("tuple["):
        return _TYPE_CHECKS[annotation]
    inner = annotation[len("tuple["):-1]
    if inner.endswith(", ..."):
        item = _compile_check(inner[: -len(", ...")])
        return lambda v: type(v) is tuple and all(map(item, v))
    first, second = map(_compile_check, inner.split(", ", 1))
    return lambda v: (
        type(v) is tuple and len(v) == 2 and first(v[0]) and second(v[1])
    )


for _cls in WIRE_TYPES.values():
    _FIELD_CHECKS[_cls.__name__] = {
        field.name: _compile_check(field.type)
        for field in dataclasses.fields(_cls)
    }


def _encode(value):
    if isinstance(value, DCRTEntry):
        return {"$": "DCRTEntry", "v": [value.cluster_id, value.move_counter]}
    if isinstance(value, DocInfo):
        return {
            "$": "DocInfo",
            "v": [value.doc_id, [int(c) for c in value.categories], value.size_bytes],
        }
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def _decode(value):
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "DCRTEntry":
            cluster_id, move_counter = value["v"]
            return DCRTEntry(int(cluster_id), int(move_counter))
        if tag == "DocInfo":
            doc_id, categories, size_bytes = value["v"]
            return DocInfo(
                doc_id=int(doc_id),
                categories=tuple(int(c) for c in categories),
                size_bytes=int(size_bytes),
            )
        raise TypeError(f"unknown wire tag {tag!r}")
    if isinstance(value, list):
        return tuple(_decode(item) for item in value)
    return value


def to_wire(payload) -> dict:
    """Encode a protocol payload into a JSON-safe dict.

    The result contains only dicts, lists, strings, numbers, bools, and
    nulls, so ``json.dumps`` accepts it directly.
    """
    cls = type(payload)
    if cls.__name__ not in WIRE_TYPES or WIRE_TYPES[cls.__name__] is not cls:
        raise TypeError(f"{cls.__name__} is not a registered wire type")
    fields = {
        field.name: _encode(getattr(payload, field.name))
        for field in dataclasses.fields(payload)
    }
    return {"type": cls.__name__, "fields": fields}


def from_wire(record: dict):
    """Decode a :func:`to_wire` record back into its payload object.

    Raises ``TypeError`` for an unknown type, or for a field whose value
    does not match its annotation.
    """
    cls = WIRE_TYPES.get(record["type"])
    if cls is None:
        raise TypeError(f"unknown wire type {record['type']!r}")
    checks = _FIELD_CHECKS[cls.__name__]
    kwargs = {name: _decode(value) for name, value in record["fields"].items()}
    for name, value in kwargs.items():
        check = checks.get(name)
        if check is not None and not check(value):
            annotation = cls.__dataclass_fields__[name].type
            raise TypeError(
                f"{cls.__name__}.{name} must be {annotation}, "
                f"got {type(value).__name__}"
            )
    return cls(**kwargs)


def oracle_frame(message: Message) -> bytes:
    """``encode_frame(message)`` with the oracle's payload record."""
    envelope = encode_envelope(dataclasses.replace(message, payload=None))
    envelope["payload"] = to_wire(message.payload)
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(HEADER_BYTES, "big") + body


#: any JSON value except a tagged dict (a dict with a ``"$"`` key).
HOSTILE_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.text(max_size=8).filter(lambda key: key != "$"), children, max_size=3
    ),
    max_leaves=6,
)


def _decision(decode, record):
    try:
        return "accept", decode(record)
    except (TypeError, KeyError, ValueError):
        return "reject", None


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_generated_codec_matches_the_recursive_one(cls, data):
    payload = data.draw(_payload_strategy(cls))
    record = m.to_wire(payload)
    assert record == to_wire(payload)
    message = Message(3, 4, "test", payload, 512, delivery_id=9, attempt=1)
    assert encode_frame(message) == oracle_frame(message)
    wired = json.loads(json.dumps(record))
    assert m.from_wire(wired) == from_wire(wired) == payload


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_decoder_accepts_what_the_recursive_one_accepts(cls, data):
    record = json.loads(json.dumps(m.to_wire(data.draw(_payload_strategy(cls)))))
    fields = record["fields"]
    names = sorted(fields)
    how = data.draw(st.sampled_from(["missing", "extra", "mistyped", "item"]))
    if how == "missing":
        del fields[data.draw(st.sampled_from(names))]
    elif how == "extra":
        name = data.draw(st.text(max_size=12).filter(lambda n: n not in names))
        fields[name] = data.draw(HOSTILE_VALUES)
    elif how == "mistyped":
        fields[data.draw(st.sampled_from(names))] = data.draw(HOSTILE_VALUES)
    else:
        lists = [name for name in names if fields[name] and type(fields[name]) is list]
        if lists:
            items = fields[data.draw(st.sampled_from(lists))]
            items[data.draw(st.integers(0, len(items) - 1))] = data.draw(
                HOSTILE_VALUES
            )
    expected = _decision(from_wire, record)
    assert _decision(m.from_wire, record) == expected
