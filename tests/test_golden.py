"""Byte-exact golden outputs of the study commands (``tests/golden/study``) and
of the engine commands (``tests/golden/engine``).

A mismatch reports the largest numeric move per field, so that a change
that moves these bytes on purpose is measured before the corpus is
regenerated with its ``regenerate.py``.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _corpus(name: str):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN / name / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


study, engine = _corpus("study"), _corpus("engine")


def _fields(name: str, text: str) -> list[tuple[str, object]]:
    """``(field, value)`` for every leaf of the file, list indices folded into ``[]``."""
    if name.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        rows = [json.loads(line) for line in text.splitlines()]
    out = []

    def walk(path: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}" if path else key, item)
        elif isinstance(value, list):
            for item in value:
                walk(path + "[]", item)
        else:
            out.append((path, value))

    for row in rows:
        walk("", row)
    return out


def _as_number(value):
    try:
        return float(value) if not isinstance(value, bool) else None
    except (TypeError, ValueError):
        return None


def _moves(name: str, want: str, got: str) -> str:
    """The largest numeric move per field, or where the two files part."""
    a, b = _fields(name, want), _fields(name, got)
    if len(a) != len(b) or any(fa != fb for (fa, _), (fb, _) in zip(a, b)):
        return f"{name}: the field structure differs ({len(a)} vs {len(b)} leaves)"
    moves: dict[str, float] = {}
    for (field, va), (_, vb) in zip(a, b):
        xa, xb = _as_number(va), _as_number(vb)
        if xa is None or xb is None:
            if va != vb:
                return f"{name}: field {field} moved from {va!r} to {vb!r}"
            continue
        if xa != xb:
            moves[field] = max(moves.get(field, 0.0), abs(xa - xb))
    return f"{name}: largest move per field {moves}"


def _compare(corpus: str, outputs, out_dir: Path) -> None:
    problems = []
    for name in outputs:
        want = (GOLDEN / corpus / name).read_text()
        got = (out_dir / name).read_text()
        if got != want:
            problems.append(_moves(name, want, got))
    assert not problems, "\n".join(problems)


def test_study_commands_write_the_golden_bytes(tmp_path):
    study.run_study(tmp_path)
    _compare("study", study.OUTPUTS, tmp_path)


def test_engine_commands_write_the_golden_bytes(tmp_path):
    engine.run_engine(tmp_path)
    _compare("engine", engine.OUTPUTS, tmp_path)
