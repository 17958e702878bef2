"""Flat ``key value`` text for the config dataclasses: the field codec, the
line reader, and the range check their ``__post_init__`` methods share.

A field's text form follows its type: ``int``, ``float`` and ``str`` as
written, ``bool`` as 0/1, an enum by its value, and ``int | None`` with -1,
and only -1, standing for None.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import fields

NONE = -1
_BOOLS = {"0": False, "1": True}


def _codec(tp) -> tuple:
    """(encode, decode) for one field type."""
    if tp is bool:
        return (lambda v: str(int(v))), _BOOLS.__getitem__
    if tp == (int | None):
        return ((lambda v: str(NONE if v is None else v)),
                (lambda text: None if int(text) == NONE else int(text)))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value), tp
    if tp in (int, float, str):
        return str, tp
    raise TypeError(f"no text form for field type {tp!r}")


@functools.cache
def codecs(cls, names: tuple[str, ...] | None = None) -> dict[str, tuple]:
    """Field name -> (encode, decode) for the named fields of a dataclass
    (default: all), resolving the field types once per class."""
    hints = typing.get_type_hints(cls)
    return {name: _codec(hints[name])
            for name in names or [f.name for f in fields(cls)]}


def to_lines(obj, names: tuple[str, ...] | None = None) -> list[str]:
    return [f"{name} {encode(getattr(obj, name))}"
            for name, (encode, _) in codecs(type(obj), names).items()]


def read_lines(text: str):
    """(line number, tokens) of each line not blank once ``#`` comments go."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def read_pairs(lines, table: dict[str, tuple], error) -> dict:
    """Decode ``key value`` lines against a codec table. A line that is not
    one known, not yet seen key and a valid value raises ``error``."""
    values = {}
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise error(f"line {lineno}: expected 'key value', got "
                        f"{' '.join(tokens)!r}")
        key, text = tokens
        if key not in table:
            raise error(f"line {lineno}: unknown key {key!r} (expected one of "
                        f"{', '.join(table)})")
        if key in values:
            raise error(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = table[key][1](text)
        except (KeyError, ValueError):
            raise error(f"line {lineno}: bad value {text!r} for {key}") from None
    return values


def check_min(obj, minimum: int, *names: str, error=ValueError) -> None:
    """Raise ``error`` naming the first of the fields below ``minimum``; its
    ``keys`` attribute holds that field's name."""
    for name in names:
        if getattr(obj, name) < minimum:
            exc = error(f"{name} ({getattr(obj, name)}) must be at least {minimum}")
            exc.keys = (name,)
            raise exc
