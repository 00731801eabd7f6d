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
