"""JSON/JSONL: deterministic emission (17-digit floats, fixed key order), typed reading."""

from __future__ import annotations

import json
import math
import sys


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize non-finite float")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps(obj) -> str:
    """Compact JSON with floats at 17 significant digits; dict order preserved."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_lines(records) -> str:
    return "".join(dumps(r) + "\n" for r in records)


def finite_float(token: str) -> float:
    """``float(token)``, rejecting NaN, +-Infinity and overflowing literals such as 1e400."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("non-finite number")
    return value


REQUIRED = object()  # json_field's default for a field that has none
_NOUNS = {int: "integers", float: "numbers", str: "strings", dict: "objects"}


def _checked(value, name: str, kind):
    """``value`` when the decoder made a ``kind`` of it, else ``ValueError`` naming ``name``."""
    if type(kind) is list and type(value) is list:
        item = kind[0]  # [float] for [[float]], which no type is, so each row recurses
        return [v if type(v) is item else _checked(v, name, item) for v in value]
    if type(value) is kind:  # only an integer literal decodes to an int: not true, "0" or 2.0
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    noun = ("a JSON array of " + ("arrays" if type(kind[0]) is list else _NOUNS[kind[0]])
            if type(kind) is list else "JSON " + _NOUNS[kind])
    raise ValueError(f"{name} takes {noun}, got {json.dumps(value, default=repr)}")


def json_field(record: dict, name: str, kind, default=REQUIRED):
    """``record[name]`` as ``kind``, else ``ValueError`` naming ``name``.

    ``kind`` is ``int``, ``float`` (an integer within float range comes back
    as a float), ``str``, ``dict`` or ``[kind]``, a JSON array of that kind.
    An absent field takes ``default`` and without one is missing; ``null`` is
    absent only where the default is ``None``.
    """
    value = record.get(name)
    if value is None and (default is None or name not in record):
        if default is REQUIRED:
            raise ValueError(f"{name} is missing")
        return default
    return _checked(value, name, kind)


class InputError(ValueError):
    """Malformed input stream; the CLI maps it to exit code 2."""


_DECODER = json.JSONDecoder(parse_constant=finite_float, parse_float=finite_float)


def parse_lines(text: str):
    """(line number, record) pairs, each record a JSON object; raises naming the line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        if type(record) is not dict:
            raise InputError(f"line {lineno}: a record is a JSON object, got {json.dumps(record)}")
        out.append((lineno, record))
    return out
