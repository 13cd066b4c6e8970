"""Write bench/reference.json: the outputs the correctness checks compare to.

    python3 bench/make_reference.py

Run it only on the commit whose outputs are the reference (the seed commit
of the benchmark); later commits are checked against the stored file.  It
stores the sweep's rows and summary; for each RunConfig seed that suite_all
draws from, every record's measured value and pass flag; and for each seed
that bessel_points draws from, the mpmath oracle's scaled I and K at every
point, every evaluation's reported err_bound and the evaluations whose error
exceeds it.  The oracle is computed here, once, because a single mpmath
call can take seconds.
"""

import json
import sys
from pathlib import Path

import mpmath

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from setup_probe import import_edgespec  # noqa: E402
from workloads import (BESSEL_SEEDS, REFERENCE_PATH, SUITE_SEEDS,  # noqa: E402
                       SWEEP_BETAS, SWEEP_GRID, SWEEP_NUS, bessel_point_set,
                       relative_error)

ORACLE_DIGITS = (40, 120, 240, 480)
ORACLE_AGREE = 1e-25


def _oracle_at(nu, x, digits):
    """Scaled I and K at ``digits`` digits: I e^{-nu eta}, K e^{+nu eta}.

    Raises ValueError unless both are positive and satisfy the Wronskian
    x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1: mpmath's besselk can return the
    same wrong value at two precisions (at nu = 570.43, x = 389.86 it gives
    the same negative K at 40 and at 120 digits), so agreement alone is not
    enough.
    """
    with mpmath.workdps(digits):
        n, z = mpmath.mpf(nu), mpmath.mpf(x)
        i0, i1 = mpmath.besseli(n, z), mpmath.besseli(n + 1, z)
        k0, k1 = mpmath.besselk(n, z), mpmath.besselk(n + 1, z)
        if (min(i0, i1, k0, k1) <= 0
                or abs(z * (i0 * k1 + i1 * k0) - 1) > ORACLE_AGREE):
            raise ValueError(f"Wronskian fails at {digits} digits")
        t = z / n
        p = mpmath.sqrt(1 + t * t)
        scale = n * (p + mpmath.log(t / (1 + p)))
        return i0 * mpmath.exp(-scale), k0 * mpmath.exp(scale)


def oracle(nu, x):
    """Scaled (I, K) from two precisions that agree, raising the precision
    until they do; None when no pair agrees.  mpmath's Bessel functions
    return garbage at low precision for large non-integer orders, so a
    single precision is never trusted, nor a value that fails the
    Wronskian."""
    prev = None
    for digits in ORACLE_DIGITS:
        try:
            cur = _oracle_at(nu, x, digits)
        except (ValueError, mpmath.libmp.NoConvergence):
            # mpmath gave up at this precision, or the Wronskian failed
            prev = None
            continue
        if prev is not None and all(abs(a / b - 1) < ORACLE_AGREE
                                    for a, b in zip(prev, cur)):
            return float(cur[0]), float(cur[1])
        prev = cur
    return None


def bessel_reference(es, seed):
    """Oracle values per point; bounds and violating evaluations in
    BesselPoints' evaluation order (I then K at each point)."""
    points, bounds, violations = [], [], []
    for nu, x in bessel_point_set(seed):
        expected = oracle(nu, x)
        if expected is None:
            raise SystemExit(f"oracle unresolved at nu={nu}, x={x}")
        points.append(expected)
        for fn, want in zip((es.bessel.bessel_i, es.bessel.bessel_k), expected):
            r = fn(nu, x, scaled=True)
            if not relative_error(r.value, want) <= r.err_bound:
                violations.append(len(bounds))
            bounds.append(r.err_bound)
    return {"expected": points, "bounds": bounds, "violations": violations}


def main():
    es = import_edgespec()
    sweep = es.model.uniform_bound_sweep(
        es.model.FiberSpectrum(tuple(nu - 0.5 for nu in SWEEP_NUS)),
        list(SWEEP_BETAS), **SWEEP_GRID)
    suites = {}
    for seed in range(SUITE_SEEDS):
        records = es.cli.run_suite("all", es.cli.RunConfig(seed=seed))
        suites[str(seed)] = [
            {"check": r.check, "params": json.dumps(r.params, sort_keys=True),
             "measured": r.measured, "pass": r.passed} for r in records]
        print(f"suite_all seed {seed}: {len(records)} records", file=sys.stderr)
    points = {}
    for seed in range(BESSEL_SEEDS):
        points[str(seed)] = bessel_reference(es, seed)
        print(f"bessel_points seed {seed}: "
              f"{len(points[str(seed)]['violations'])} violations",
              file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"sweep": sweep, "suite_all": suites,
                   "bessel_points": points}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
