"""Frozen slotted dataclasses whose constructor fills the slots directly.

``@dataclass(frozen=True, slots=True)`` generates an ``__init__`` that
sets every field through ``object.__setattr__`` — a global lookup, an
attribute lookup and a generic ``setattr`` per field, because the class's
own ``__setattr__`` refuses.  :func:`frozen_dataclass` keeps everything
that decorator builds (fields, ``__eq__``, ``__hash__``, ``__repr__``,
``replace``, the refusing ``__setattr__``) and swaps in an ``__init__``
with the same signature that calls each slot's member descriptor
instead, which is what a slot assignment costs in an ordinary class.

The generated code is compiled under a file name of its own per class
(``<repro.overlay.messages.QueryMessage.__init__>``), so profiles keep
one row per constructor instead of folding every dataclass ``__init__``
into one ``<string>:2(__init__)`` row.
"""

from __future__ import annotations

import dataclasses

__all__ = ["frozen_dataclass"]


def frozen_dataclass(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)`` with a slot-filling ``__init__``.

    For classes whose fields are plain: no ``default_factory``, no
    ``init=False``.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    env: dict[str, object] = {}
    params, body = [], []
    for field in dataclasses.fields(cls):
        env[f"_set_{field.name}"] = cls.__dict__[field.name].__set__
        if field.default is dataclasses.MISSING:
            params.append(field.name)
        else:
            env[f"_dflt_{field.name}"] = field.default
            params.append(f"{field.name}=_dflt_{field.name}")
        body.append(f"  _set_{field.name}(self, {field.name})")
    source = (
        f"def __create_init__({', '.join(env)}):\n"
        f" def __init__(self, {', '.join(params)}):\n"
        + "\n".join(body)
        + "\n return __init__\n"
    )
    namespace: dict[str, object] = {}
    filename = f"<{cls.__module__}.{cls.__qualname__}.__init__>"
    exec(compile(source, filename, "exec"), namespace)
    init = namespace["__create_init__"](**env)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls
