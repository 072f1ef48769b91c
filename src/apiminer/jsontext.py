"""JSON documents in the layout of ``json.dumps(value, indent=2)``.

With an indent, ``json.dumps`` always runs CPython's pure-Python encoder.
These functions write the same text from joins of encoded parts: strings
through the C string encoder, ints through ``str``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as string

__all__ = ["array", "obj", "string", "value"]


def array(items: list[str], indent: str) -> str:
    """A JSON list of the encoded ``items``, its brackets at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def obj(fields: list[tuple[str, str]], indent: str) -> str:
    """A JSON object of ``fields``, (key, encoded value) pairs, its braces at
    ``indent``."""
    if not fields:
        return "{}"
    inner = "\n" + indent + "  "
    return (
        "{" + inner + ("," + inner).join(string(k) + ": " + v for k, v in fields)
        + "\n" + indent + "}"
    )


def value(v, indent: str = "") -> str:
    """``json.dumps(v, indent=2)`` for a value that starts at ``indent``.

    Lists, dicts with string keys and scalars are written here; any other
    value (a tuple, a dict with other keys, a float that is not finite) by
    ``json.dumps`` itself, its lines moved to ``indent``.
    """
    kind = type(v)
    if kind is str:
        return string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if kind is int:
        return str(v)
    if kind is float and math.isfinite(v):
        return repr(v)
    inner = indent + "  "
    if kind is list:
        return array([value(item, inner) for item in v], indent)
    if kind is dict and all(type(k) is str for k in v):
        return obj([(k, value(item, inner)) for k, item in v.items()], indent)
    # json.dumps writes no raw line break inside a string
    return json.dumps(v, indent=2).replace("\n", "\n" + indent)
