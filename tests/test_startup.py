"""The benchmark's set-up loads no computer algebra, no scipy and no
numpy.ma, and ``edgespec all`` no computer algebra.

Importing sympy (with mpmath) costs about 0.3 s, and scipy.linalg pulls in
about 300 more modules; nothing on the set-up path needs either.  scipy
serves only the parametrix's banded LU and the boundary fingerprint's
tridiagonal eigen-solve, each loaded on its first call, so ``edgespec
all`` may load it.  The toolkit masks no array, and numpy.ma
costs about 9 ms and 1.2 MiB; scipy.linalg imports it, so ``edgespec
all`` may load it too.  pytest's own process has loaded all of these for
other tests, so the checks run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the set-up probe's imports and warm-up calls, then the whole report; the
# heavy modules loaded after each
SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
heavy = {"sympy", "mpmath", "scipy", "numpy.ma"}
import setup_probe
es = setup_probe.import_edgespec()
setup_probe.warm_up(es)
print(json.dumps(sorted(heavy & set(sys.modules))))
cli = es.cli
cli.emit(cli.run_suite("all", cli.RunConfig(seed=0)), "json")
print(json.dumps(sorted(heavy & set(sys.modules))))
"""


@pytest.fixture(scope="module")
def loaded():
    """(after the set-up, after the whole report): heavy modules loaded."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()[-2:]]


def test_setup_and_all_suite_load_no_sympy(loaded):
    assert [sorted({"sympy", "mpmath"} & set(mods)) for mods in loaded] == [
        [], []]


def test_setup_loads_no_scipy(loaded):
    setup, _ = loaded
    assert "scipy" not in setup


def test_setup_loads_no_numpy_ma(loaded):
    setup, _ = loaded
    assert "numpy.ma" not in setup
