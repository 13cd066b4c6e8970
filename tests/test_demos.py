"""Every demo runs to completion and prints something.

The demos read public names of the package, so a demo that breaks can keep
a dead name alive in the layout guard unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run():
    assert len(DEMOS) == 5
    # all five at once, one process per demo and one BLAS thread each: the
    # processes share the cores, and more threads would only contend
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")))))
    procs = {d.name: subprocess.Popen([sys.executable, str(d)], env=env,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
             for d in DEMOS}
    failed = {}
    try:
        for name, p in procs.items():
            out, err = p.communicate(timeout=120)
            if p.returncode != 0 or not out.strip():
                failed[name] = (p.returncode, err[-2000:])
    finally:
        for p in procs.values():
            p.kill()  # a no-op for a process that has exited
    assert failed == {}
