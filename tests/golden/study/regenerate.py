"""Write the golden study outputs beside this file.

Runs ``coherify simulate`` (bets and residual ECDF), ``regret`` under each
allocation rule, ``gate`` and ``predict`` on ``scenario.cfg``,
``predict`` on ``scenario-sampled.cfg``, whose draws are sampled rather
than exhausted, and ``regret --rule truncated-kelly`` on the hand-written
``bets-kelly-cap.jsonl``, whose repaired quotes put more than
``KELLY_CAP`` on the unique YES. ``tests/test_golden.py`` runs the same
commands and compares bytes. Regenerate only for a change that moves
these bytes on purpose, and declare the move:

    PYTHONPATH=src python tests/golden/study/regenerate.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RULES = ("proportional", "truncated-kelly", "max-entropy")
OUTPUTS = ("bets.jsonl", "ecdf.csv", *(f"regret-{rule}.json" for rule in RULES),
           "gate.json", "predict.jsonl", "predict-sampled.jsonl", "regret-kelly-cap.json")


def run_study(out_dir: Path) -> None:
    """Run every golden command, writing ``OUTPUTS`` (and their manifests) to ``out_dir``."""
    from coherify.cli import main

    scenario, sampled = str(HERE / "scenario.cfg"), str(HERE / "scenario-sampled.cfg")
    bets = str(out_dir / "bets.jsonl")
    argvs = [["simulate", scenario, "--ecdf-out", str(out_dir / "ecdf.csv"), "--out", bets]]
    argvs += [["regret", bets, "--rule", rule, "--out", str(out_dir / f"regret-{rule}.json")]
              for rule in RULES]
    argvs += [["gate", bets, "--out", str(out_dir / "gate.json")],
              ["predict", scenario, "--out", str(out_dir / "predict.jsonl")],
              ["predict", sampled, "--out", str(out_dir / "predict-sampled.jsonl")],
              ["regret", str(HERE / "bets-kelly-cap.jsonl"), "--rule", "truncated-kelly",
               "--out", str(out_dir / "regret-kelly-cap.json")]]
    for argv in argvs:
        if main(argv) != 0:
            raise RuntimeError(f"coherify {' '.join(argv)} failed")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_study(Path(tmp))
        for name in OUTPUTS:
            shutil.copyfile(Path(tmp) / name, HERE / name)
    sys.stdout.write(f"wrote {len(OUTPUTS)} files to {HERE}\n")
