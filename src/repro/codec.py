"""Binary encoders and decoders generated from field annotations, for
``repro.wire/v2`` frames (:mod:`repro.transport.wire`) and WAL records
and snapshots (:mod:`repro.durability.wal`).  Callers frame their own
bodies; fields are big-endian: ``int`` an int64, ``float`` a finite
double, ``bool`` a byte 0 or 1, ``tuple[X, ...]`` a uint32 count then the
items, a pair or an ``inline`` class its fields.  Standard library only:
``repro.durability`` sits below the overlay the wire codec imports.
"""

from __future__ import annotations

import dataclasses
from struct import Struct, calcsize, pack, unpack_from
from typing import Callable

__all__ = ["Source", "Run", "encode", "decode"]

#: scalar annotation -> its struct format character.
_FORMATS = {"int": "q", "float": "d", "bool": "B"}


class Source:
    """One generated function: its body, local names and ``Struct`` objects;
    ``inline`` annotations are written as their class's fields, and the
    generated checks raise ``error``."""

    def __init__(self, env: dict, inline: dict[str, type], error: type) -> None:
        self.lines: list[str] = []
        self.names = 0
        self.inline = inline
        self.env = {
            "_inf": float("inf"),
            "_pack": pack,
            "_unpack_from": unpack_from,
            "_Error": error,
            **{f"_{name}": cls for name, cls in inline.items()},
            **env,
        }

    def local(self) -> str:
        self.names += 1
        return f"_{self.names}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def struct(self, fmt: str) -> str:
        name = f"_S{len(self.env)}"
        self.env[name] = Struct(">" + fmt)
        return name

    def min_bytes(self, annotation: str) -> int:
        """The fewest bytes a value of ``annotation`` takes."""
        if annotation in _FORMATS:
            return calcsize(_FORMATS[annotation])
        if annotation in self.inline:
            fields = dataclasses.fields(self.inline[annotation])
            return sum(self.min_bytes(field.type) for field in fields)
        first, second = _tuple_args(annotation)
        return 4 if second == "..." else self.min_bytes(first) + self.min_bytes(second)

    def define(self, params: str, filename: str) -> Callable:
        source = f"def _fn({params}):\n" + "\n".join(self.lines) + "\n"
        exec(compile(source, filename, "exec"), self.env)
        return self.env["_fn"]


class Run:
    """Fixed-size values waiting for one ``Struct`` call: a format, the
    value expressions (or target names) and, when decoding, the checks
    those values must pass once unpacked."""

    def __init__(self) -> None:
        self.fmt = ""
        self.values: list[str] = []
        self.checks: list[str] = []

    def add(self, fmt: str, value: str) -> None:
        self.fmt += fmt
        self.values.append(value)

    def pack(self, out: Source, depth: int) -> None:
        if self.values:
            values = ", ".join(self.values)
            out.emit(depth, f"parts.append({out.struct(self.fmt)}.pack({values}))")
        self.fmt, self.values, self.checks = "", [], []

    def unpack(self, out: Source, depth: int) -> None:
        if self.values:
            struct = out.struct(self.fmt)
            out.emit(depth, f"{', '.join(self.values)}, = {struct}.unpack_from(d, o)")
            out.emit(depth, f"o += {calcsize('>' + self.fmt)}")
            for check in self.checks:
                out.emit(depth, check)
        self.fmt, self.values, self.checks = "", [], []


def _tuple_args(annotation: str) -> tuple[str, str]:
    """``tuple[X, ...]`` -> ``(X, "...")``; a pair ``tuple[A, B]`` (a
    scalar first, so it splits at its first comma) -> ``(A, B)``."""
    inner = annotation[len("tuple["):-1]
    if inner.endswith(", ..."):
        return inner[: -len(", ...")], "..."
    first, second = inner.split(", ", 1)
    return first, second


def encode(annotation: str, value: str, out: Source, run: Run, depth: int,
           where: str) -> None:
    """Emit into ``out`` what writes ``value``, an ``annotation``, to the
    list ``parts``: scalars join ``run``; a tuple's count ends it, and its
    items follow."""
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        test = {
            "float": f"type({value}) is bool or not -_inf < {value} < _inf",
            "bool": f"type({value}) is not bool",
        }.get(annotation)
        if test is not None:
            out.emit(
                depth,
                f"if {test}: raise _Error(f'{where} cannot be {{{value}!r}}')",
            )
        run.add(fmt, value)
        return
    cls = out.inline.get(annotation)
    if cls is not None:
        for field in dataclasses.fields(cls):
            encode(field.type, f"{value}.{field.name}", out, run, depth,
                   f"{where}.{field.name}")
        return
    first, second = _tuple_args(annotation)
    if second != "...":
        a, b = out.local(), out.local()
        out.emit(depth, f"{a}, {b} = {value}")
        encode(first, a, out, run, depth, where)
        encode(second, b, out, run, depth, where)
        return
    run.add("I", f"len({value})")
    run.pack(out, depth)
    if first == "int":
        out.emit(depth, f"parts.append(_pack(f'>{{len({value})}}q', *{value}))")
        return
    item, inner = out.local(), Run()
    out.emit(depth, f"for {item} in {value}:")
    encode(first, item, out, inner, depth + 1, where)
    inner.pack(out, depth + 1)


def decode(annotation: str, out: Source, run: Run, depth: int, where: str) -> str:
    """Emit into ``out`` what reads an ``annotation`` at offset ``o`` of
    ``d``; return the expression that builds it.  Scalars join ``run``
    (their names are bound when it is unpacked); a tuple's count ends it
    and is checked against the bytes left before any item is read."""
    fmt = _FORMATS.get(annotation)
    if fmt is not None:
        value = out.local()
        run.add(fmt, value)
        if annotation == "float":
            run.checks.append(
                f"if not -_inf < {value} < _inf: "
                f"raise _Error('{where} is not finite')"
            )
        elif annotation == "bool":
            run.checks.append(
                f"if {value} > 1: raise _Error('{where} is not 0 or 1')"
            )
            return f"{value} == 1"
        return value
    cls = out.inline.get(annotation)
    if cls is not None:
        args = ", ".join(
            decode(f.type, out, run, depth, f"{where}.{f.name}")
            for f in dataclasses.fields(cls)
        )
        return f"_{annotation}({args})"
    first, second = _tuple_args(annotation)
    if second != "...":
        a = decode(first, out, run, depth, where)
        return f"({a}, {decode(second, out, run, depth, where)})"
    count, items = out.local(), out.local()
    run.add("I", count)
    run.unpack(out, depth)
    out.emit(
        depth,
        f"if {count} * {out.min_bytes(first)} > len(d) - o: raise _Error("
        f"f'{where} declares {{{count}}} items in {{len(d) - o}} bytes')",
    )
    if first == "int":
        out.emit(depth, f"{items} = _unpack_from(f'>{{{count}}}q', d, o)")
        out.emit(depth, f"o += 8 * {count}")
        return items
    inner = Run()
    out.emit(depth, f"{items} = []")
    out.emit(depth, f"for _ in range({count}):")
    item = decode(first, out, inner, depth + 1, where)
    inner.unpack(out, depth + 1)
    out.emit(depth + 1, f"{items}.append({item})")
    return f"tuple({items})"
