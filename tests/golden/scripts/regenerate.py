"""Write the golden tables of the experiment scripts beside this file.

Runs each ``scripts/run_*.py`` at the small flags ``tests/test_scripts.py``
uses and keeps what its ``main`` prints as ``<script>.txt``. The tables
read ``run_ensemble``'s certificates, so they move when a certificate
moves. ``tests/test_golden.py`` runs the same scripts and compares bytes.
Regenerate only for a change that moves these bytes on purpose, and
declare the move:

    PYTHONPATH=src python tests/golden/scripts/regenerate.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPTS = HERE.parent.parent.parent / "scripts"
RUNS = (("run_hardness", ["--n-cliques", "2", "--n-seeds", "1"]),
        ("run_operator_ablation", ["--n-cliques", "2", "--n-seeds", "1"]),
        ("run_gate_calibration", ["--n-cliques", "20", "--n-seeds", "2"]))
OUTPUTS = tuple(f"{name}.txt" for name, _ in RUNS)


def run_scripts(out_dir: Path) -> None:
    """Run every script of ``RUNS``, writing its printed table to ``out_dir``."""
    for name, argv in RUNS:
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = script.main(argv)
        if code != 0:
            raise RuntimeError(f"{name} {' '.join(argv)} exited {code}")
        (out_dir / f"{name}.txt").write_text(stdout.getvalue())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_scripts(Path(tmp))
        for name in OUTPUTS:
            shutil.copyfile(Path(tmp) / name, HERE / name)
    sys.stdout.write(f"wrote {len(OUTPUTS)} files to {HERE}\n")
