"""Write the golden engine outputs beside this file.

Runs ``coherify project`` on every relation, ``certify`` on a catalog
file, on relations over disjoint coordinates, on systems with a generic
block and on a file with an infeasible record (whose exit code and
stderr line are kept as ``certify-infeasible.err.json``), and
``monitor`` on a residual stream. ``tests/test_golden.py`` runs the same
commands and compares bytes. Regenerate only for a change that moves
these bytes on purpose, and declare the move:

    PYTHONPATH=src python tests/golden/engine/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CERTIFY = ("catalog", "disjoint", "generic")
RUNS = [("project", "project.jsonl", "project.out.jsonl"),
        *[("certify", f"certify-{name}.jsonl", f"certify-{name}.out.jsonl") for name in CERTIFY],
        ("monitor", "monitor.jsonl", "monitor.out.jsonl")]
FAILING = ("certify", "certify-infeasible.jsonl", "certify-infeasible.err.json")
OUTPUTS = tuple(out for _, _, out in RUNS) + (FAILING[2],)


def run_engine(out_dir: Path) -> None:
    """Run every golden command, writing ``OUTPUTS`` (and their manifests) to ``out_dir``."""
    from coherify.cli import main
    from coherify.jsonio import dumps

    for command, source, out in RUNS:
        argv = [command, str(HERE / source), "--out", str(out_dir / out)]
        if main(argv) != 0:
            raise RuntimeError(f"coherify {' '.join(argv)} failed")
    command, source, out = FAILING
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, str(HERE / source), "--out", str(out_dir / "unwritten.jsonl")])
    (out_dir / out).write_text(dumps({"exit": code, "stderr": stderr.getvalue()}) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_engine(Path(tmp))
        for name in OUTPUTS:
            shutil.copyfile(Path(tmp) / name, HERE / name)
    sys.stdout.write(f"wrote {len(OUTPUTS)} files to {HERE}\n")
