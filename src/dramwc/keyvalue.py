"""Flat ``key value`` text for the config dataclasses: the field codec, the
line reader, the range check their ``__post_init__`` methods share, the base
of the enums that a value names, and the one error type of bad input.

A field's text form follows its type: ``int``, ``float`` and ``str`` as
written, an enum by its value, and ``int | None`` with -1, and only -1,
standing for None.
"""

from __future__ import annotations

import enum
import functools
import re
import typing
from dataclasses import fields

NONE = -1


class InputError(ValueError):
    """Bad input. ``keys`` names the fields that the failing check read."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


class ScenarioError(InputError):
    """Malformed or cap-violating scenario."""


class Choice(enum.Enum):
    """An enum of named choices: ``Kind(value)`` accepts a member or its
    value, and anything else is a ScenarioError naming the choices."""

    @classmethod
    def _missing_(cls, value):
        what = re.sub(r"(?<=.)(?=[A-Z])", " ", cls.__name__).lower()
        raise ScenarioError(f"unknown {what} {value!r}; choose from "
                            + ", ".join(member.value for member in cls))


def _codec(tp) -> tuple:
    """(encode, decode) for one field type."""
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


def build(lines: list, table: dict[str, tuple], make, error, at: int | None = None):
    """``make(**values)`` of the ``key value`` lines decoded against ``table``;
    a syntax error is ``error``, as in :func:`read_pairs`.

    An InputError from ``make`` names the line from which on the values read
    so far for the keys that the failing check read, with the other keys'
    values, fail a check that reads one of those keys. An error masked by an
    earlier one then names its own line. An error whose check read none of
    the lines, or a ``TypeError`` from ``make`` (a key without a default is
    missing), names ``at``, the line of the lines' section header.
    """
    values = read_pairs(lines, table, error)
    try:
        return make(**values)
    except TypeError as exc:
        raise error(f"line {at}: {exc}") from None
    except InputError as exc:
        since = None
        read = {key: value for key, value in values.items() if key not in exc.keys}
        for lineno, (key, _) in lines:
            if key not in exc.keys:
                continue
            read[key] = values[key]
            try:
                make(**read)
                failed = False
            except InputError as again:
                failed = not set(again.keys).isdisjoint(exc.keys)
            since = (since or lineno) if failed else None
        raise type(exc)(f"line {since or at}: {exc}", exc.keys) from None


def check_min(obj, minimum: int | None, *names: str) -> None:
    """Raise a ScenarioError keyed by the first of the fields that is not an
    ``int`` (a ``bool`` is not one) or is below ``minimum``, if one is given."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(f"{name} ({value!r}) must be an integer", (name,))
        if minimum is not None and value < minimum:
            raise ScenarioError(f"{name} ({value}) must be at least {minimum}", (name,))
