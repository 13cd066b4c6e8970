"""The benchmark's set-up and ``edgespec all`` load no computer algebra.

Importing sympy (with mpmath) costs about 0.3 s, more than the rest of the
set-up, and nothing on these paths needs it.  pytest's own process has
loaded both for the oracles of other tests, so the check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the set-up probe's imports and warm-up calls, then the whole report
SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import setup_probe
es = setup_probe.import_edgespec()
setup_probe.warm_up(es)
cli = es.cli
cli.emit(cli.run_suite("all", cli.RunConfig(seed=0)), "json")
print(json.dumps(sorted({"sympy", "mpmath"} & set(sys.modules))))
"""


def test_setup_and_all_suite_load_no_sympy():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
