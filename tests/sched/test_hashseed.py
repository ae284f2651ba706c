"""Compiled schedules must not depend on ``PYTHONHASHSEED``.

Loop regions used to be found by walking a set of block labels, so the
order of equal-sized loops followed string hashing, and so did where the
scheduler put compensation blocks: espresso under boost1 laid two
``.comp`` blocks out differently at hash seed 2 than at seed 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import json
from repro.harness.experiments import CONFIGS
from repro.harness.pipeline import compile_minic
from repro.workloads import get

w = get("espresso")
cp = compile_minic(w.source, CONFIGS["boost1"], w.train)
dumps = []
for proc in cp.sched.procedures.values():
    dumps.extend(block.dump() for block in proc.blocks)
    for _, recovery in sorted(proc.recovery.items()):
        dumps.append("\\n".join([f"{recovery.resume_label}:",
                                 *map(str, recovery.instructions)]))
print(json.dumps(dumps))
"""


def _schedule(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_espresso_boost1_schedule_ignores_hash_seed():
    assert _schedule("0") == _schedule("2")
