"""Deterministic JSON/JSONL emission: 17-significant-digit floats, fixed key order."""

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


def json_int(value, field: str) -> int:
    """``value`` when it is a JSON integer, else ``ValueError`` naming ``field``.

    The decoder makes an ``int`` only of an integer literal, so this
    refuses ``true`` and ``false``, strings such as ``"0"`` and every
    number with a fraction or exponent, ``1.9`` and ``2.0`` alike.
    """
    if type(value) is not int:
        raise ValueError(f"{field} takes JSON integers, got {json.dumps(value, default=repr)}")
    return value


def json_float(value, field: str) -> float:
    """``value`` as a float when it is a JSON number, else ``ValueError`` naming ``field``.

    Refuses ``true``, ``false``, strings such as ``"nan"`` and integers too
    large for a float; the decoder has refused non-finite literals.
    """
    if type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{field} takes JSON numbers, got {json.dumps(value, default=repr)}")


def json_floats(values, field: str) -> list[float]:
    """``json_float`` of every entry of ``values``, which must be a JSON array."""
    if type(values) is not list:
        raise ValueError(f"{field} takes a JSON array of numbers, got "
                         f"{json.dumps(values, default=repr)}")
    return [json_float(v, field) for v in values]


class InputError(ValueError):
    """Malformed input stream; the CLI maps it to exit code 2."""


_DECODER = json.JSONDecoder(parse_constant=finite_float, parse_float=finite_float)


def parse_lines(text: str):
    """(line number, parsed record) pairs; raises with the offending line number."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append((lineno, _DECODER.decode(line)))
        except json.JSONDecodeError as exc:
            raise InputError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return out
