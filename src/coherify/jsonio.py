"""JSON/JSONL: deterministic emission (17-digit floats, fixed key order), typed reading."""

from __future__ import annotations

import itertools
import json
import math
import sys


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize non-finite float")
    if abs(x) < 1e16 and x.is_integer():
        return f"{x:.1f}"
    return format(x, ".17g")


_string = json.encoder.encode_basestring_ascii  # what json.dumps writes a str with


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
        return _string(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_string(str(k))}: {dumps(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_column(obj)) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _floats(values) -> list[str]:
    """``_format_float`` of each Python float, in one ``%.17g`` pass; the values that
    ``%.17g`` writes without a point (integral or non-finite) are redone."""
    out = list(map("%.17g".__mod__, values))
    if "".join(out).count(".") != len(out):
        out = [s if "." in s else _format_float(x) for s, x in zip(out, values)]
    return out


def _column(values) -> list[str]:
    """``dumps`` of each value; floats, strings, and the entries of lists and tuples, in
    one pass."""
    types = set(map(type, values))
    if types == {float}:
        return _floats(values)
    if types <= {str}:
        return list(map(_string, values))
    if not types <= {list, tuple}:
        return list(map(dumps, values))
    entries = iter(_column(list(itertools.chain.from_iterable(values))))
    return ["[" + ", ".join(itertools.islice(entries, n)) + "]" for n in map(len, values)]


def dump_columns(columns: dict) -> str:
    """``dump_lines`` of the records ``{key: columns[key][i]}``, written column by column
    into one line template."""
    template = "{" + ", ".join(_string(str(k)).replace("%", "%%") + ": %s" for k in columns) + "}\n"
    try:
        return "".join(map(template.__mod__, zip(*map(_column, columns.values()))))
    except (TypeError, ValueError):  # the first record at fault raises, as it would alone
        return "".join(dumps(dict(zip(columns, row))) + "\n" for row in zip(*columns.values()))


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


def _unchecked(cls, **fields):
    """A ``cls`` of ``fields`` without ``__init__`` or ``__post_init__``, for checked parts."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class InputError(ValueError):
    """Malformed input stream; the CLI maps it to exit code 2."""


_DECODER = json.JSONDecoder(parse_constant=finite_float, parse_float=finite_float)


def parse_lines(text: str):
    """(line number, record) pairs, each record a JSON object; the first line that is
    not one raises ``InputError`` naming it, with the pairs before it as ``records``.

    Lines end at ``"\n"`` only: U+2028, U+2029 and U+0085, which ``str.splitlines``
    also breaks at, may stand raw inside a JSON string."""
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = _DECODER.decode(line)
            if type(record) is not dict:
                raise ValueError(f"a record is a JSON object, got {json.dumps(record)}")
        except ValueError as exc:
            reason = f"invalid JSON ({exc.msg})" if isinstance(exc, json.JSONDecodeError) else exc
            error = InputError(f"line {lineno}: {reason}")
            error.records = out
            raise error from exc
        out.append((lineno, record))
    return out
