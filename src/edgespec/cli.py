"""Command-line verification harness.

Runs the per-module invariant suites over configurable parameter grids and
emits machine-readable reports.  Every check becomes one CheckRecord; the
JSON/CSV output is deterministic for a fixed configuration apart from the
runtime_ms field.

Exit status: 0 when every record passes, 1 when any fails (the failing
records are printed to stderr), 2 on usage errors, on input the toolkit
refuses and on an ``--out`` file that cannot be written.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bessel import uniform_asymptotic_excess, wronskian_residual
from .clifford import commutator_report
from .errors import ConfigurationError, EdgespecError, PreconditionError
from .grids import (X_MAX_DEFAULT, X_MIN_DEFAULT, build_grid,
                    free_column_quadrature, nystrom_assemble, operator_norm)
from .kernels import (WITT_FLOOR, ConeKernel, WeightedAction,
                      exact_weighted_norm, free_schur_integrals)
from .model import FiberSpectrum, check_witt, round_trip_residual
from .parametrix import mapping_bounds, random_section
from .scales import (DEFAULT_SEED, TENSOR_CHECK_TOL, intersection_scale_check,
                     random_generator, random_psd_block, same_scale_demo,
                     tensor_positivity_check, tensor_power_error)

# Fourier modes in y of the parametrix suite's random edge functions.
Y_MODES = 16


@dataclass(frozen=True)
class CheckRecord:
    check: str
    params: dict
    measured: float
    bound: float
    passed: bool
    runtime_ms: int

    def as_dict(self):
        return {"check": self.check, "params": self.params,
                "measured": self.measured, "bound": self.bound,
                "pass": self.passed, "runtime_ms": self.runtime_ms}

    def param_string(self):
        return ";".join(f"{k}={self.params[k]}" for k in sorted(self.params))


@dataclass
class RunConfig:
    grid_n: int = 400
    x_min: float = X_MIN_DEFAULT
    x_max: float = X_MAX_DEFAULT
    nu: float = 2.0
    beta: float = 0.0
    spectrum: tuple = (1.6, -1.6, 2.6, -2.6)
    seed: int = DEFAULT_SEED


def _record(check, params, measured, bound, passed, t0):
    return CheckRecord(check, dict(params), float(measured),
                       float(bound), bool(passed),
                       int(round((time.perf_counter() - t0) * 1000)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_bessel(cfg: RunConfig):
    out = []
    t0 = time.perf_counter()
    nus = np.exp(np.linspace(math.log(0.5), math.log(50.0), 20))
    xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 20))
    worst = wronskian_residual(nus, xs)
    out.append(_record("bessel.wronskian", {"grid": "20x20"},
                       worst, 1e-10, worst <= 1e-10, t0))
    # one pass over the three orders; each record times the shared pass
    t0 = time.perf_counter()
    mus = (10.0, 20.0, 40.0)
    for mu, (err, _) in zip(mus, uniform_asymptotic_excess(mus, xs)):
        out.append(_record("bessel.olver_vs_eta_bound", {"mu": mu},
                           err, 1.0, err <= 1.0, t0))
    return out


def _suite_schur(cfg: RunConfig):
    out = []
    nu, beta = cfg.nu, cfg.beta
    t0 = time.perf_counter()
    grid = build_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
    [op] = nystrom_assemble(ConeKernel(nu, beta), (WeightedAction(-2, 0),),
                            grid)
    measured = operator_norm(op, grid.weights)
    # the exact norm is beta-independent; the truncated window approaches
    # it from below
    bound = (1.0 + 1e-6) * exact_weighted_norm(nu, 0)
    out.append(_record("schur.weighted_norm", {"nu": nu, "beta": beta},
                       measured, bound, measured <= bound, t0))
    if beta == 0.0:
        t0 = time.perf_counter()
        _, col = free_schur_integrals(nu)
        rel = abs(free_column_quadrature(nu) - col) / col
        out.append(_record("schur.col_integral", {"nu": nu},
                           rel, 1e-8, rel <= 1e-8, t0))
    return out


def _suite_model(cfg: RunConfig):
    t0 = time.perf_counter()
    grid = build_grid(cfg.grid_n, max(cfg.x_min, 1e-2), min(cfg.x_max, 1e2))
    rel = round_trip_residual(cfg.nu, cfg.beta, grid)
    return [_record("model.round_trip", {"nu": cfg.nu, "beta": cfg.beta,
                                         "n": cfg.grid_n},
                    rel, 1e-2, rel <= 1e-2, t0)]


def _suite_parametrix(cfg: RunConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)
    grid = build_grid(max(cfg.grid_n, 200), 1e-2, 1e2)
    nus = FiberSpectrum(tuple(cfg.spectrum)).nu_values()
    for order, n_c in (("first", 2), ("second", 1)):
        t0 = time.perf_counter()
        u = random_section(grid, Y_MODES, len(nus), n_c, rng)
        rep = mapping_bounds(u, nus, grid)
        out.append(_record(f"parametrix.residual_{order}",
                           {"order": order, "n": grid.n},
                           rep.residual_rel, 1e-8,
                           rep.residual_rel <= 1e-8, t0))
        out.append(_record(f"parametrix.fitted_c_{order}",
                           {"order": order, "n": grid.n},
                           rep.fitted_c, math.inf, True, t0))
    return out


def _suite_gb(cfg: RunConfig):
    out = []
    names = ("gb.anticommutator_gamma_s", "gb.anticommutator_gamma_t",
             "gb.commutator_t_s")
    t0 = time.perf_counter()
    for name, mat in zip(names, commutator_report()):
        worst = float(np.abs(mat).max())
        out.append(_record(name, {}, worst, 0.0, worst == 0.0, t0))
    return out


def _suite_scales(cfg: RunConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    g1, g2 = random_generator(5, rng), random_generator(4, rng)
    err = tensor_power_error(g1, g2)
    out.append(_record("scales.tensor_power_identity", {"dims": "5x4"},
                       err, TENSOR_CHECK_TOL, err <= TENSOR_CHECK_TOL, t0))
    t0 = time.perf_counter()
    rep = intersection_scale_check(g1, g2, s=1.3, theta=0.4, trials=50,
                                   seed=cfg.seed)
    out.append(_record("scales.intersection_sandwich", {"s": 1.3,
                                                        "theta": 0.4},
                       rep["worst_margin"], 1e-10,
                       rep["violations"] == 0, t0))
    t0 = time.perf_counter()
    a = random_psd_block(3, 2, rng)
    b = random_psd_block(3, 2, rng)
    pos = tensor_positivity_check(a, b, trials=20, seed=cfg.seed)
    lam = min(pos["lambda_min_tensor"], pos["lambda_min_sum"],
              pos["lambda_min_monotone"])
    out.append(_record("scales.tensor_positivity", {"trials": 20},
                       lam, -1e-10, pos["passes"], t0))
    t0 = time.perf_counter()
    ratio = same_scale_demo(a=1.0, n=cfg.grid_n)["fingerprint_ratio"]
    out.append(_record("scales.boundary_fingerprint", {"a": 1.0,
                                                       "n": cfg.grid_n},
                       ratio, 10.0, ratio >= 10.0, t0))
    return out


def _suite_witt(cfg: RunConfig):
    t0 = time.perf_counter()
    rep = check_witt(FiberSpectrum(tuple(cfg.spectrum)))
    # the spectral gap |s| > 1 that the order floor nu > WITT_FLOOR implies
    gap = float(WITT_FLOOR) - 0.5
    return [_record("witt.spectral_gap",
                    {"spectrum": ",".join(str(s) for s in cfg.spectrum),
                     "gap": gap},
                    rep.min_abs, gap, rep.passes, t0)]


_SUITE_FUNCS = {
    "bessel": _suite_bessel,
    "schur": _suite_schur,
    "model": _suite_model,
    "parametrix": _suite_parametrix,
    "gb": _suite_gb,
    "scales": _suite_scales,
    "witt": _suite_witt,
}
SUITES = (*_SUITE_FUNCS, "all")


def run_suite(name: str, config: RunConfig):
    """Execute one named suite (or "all"), sorted by (check, params).

    A negative seed raises ConfigurationError: numpy's generators take
    nonnegative seeds only.
    """
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}")
    if config.seed < 0:
        raise ConfigurationError(
            f"seed must be nonnegative, got {config.seed}")
    names = _SUITE_FUNCS.keys() if name == "all" else (name,)
    records = []
    for nm in names:
        records.extend(_SUITE_FUNCS[nm](config))
    records.sort(key=lambda r: (r.check, r.param_string()))
    return records


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def _fmt_real(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def emit(records, fmt: str = "json") -> bytes:
    """Serialize CheckRecords as JSON (array of objects; a non-finite
    ``measured`` or ``bound`` is null, as RFC 8259 has no Infinity) or CSV."""
    if not records:
        raise PreconditionError("emit requires at least one record")
    if fmt == "json":
        payload = [r.as_dict() for r in records]
        for rec in payload:
            rec.update((k, None) for k in ("measured", "bound")
                       if not math.isfinite(rec[k]))
        return (json.dumps(payload, indent=2, sort_keys=True,
                           allow_nan=False) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["check", "param_string", "measured", "bound", "pass",
                     "runtime_ms"])
        for r in records:
            wr.writerow([r.check, r.param_string(), _fmt_real(r.measured),
                         _fmt_real(r.bound), str(r.passed).lower(),
                         r.runtime_ms])
        return buf.getvalue().encode("utf-8")
    raise PreconditionError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="edgespec",
        description="Run numerical verification suites for the cone-edge "
                    "model-operator toolkit.")
    p.add_argument("suite", choices=SUITES,
                   help="the suite to run ('all' runs every suite); bessel "
                        "and gb take no parameters")
    defaults = RunConfig()
    p.add_argument("--grid-n", type=int, default=defaults.grid_n,
                   help="grid size N of schur and model, of scales' boundary "
                        "fingerprint, and of parametrix (at least 200 there)"
                        " (default %(default)s)")
    p.add_argument("--x-min", type=float, default=defaults.x_min,
                   help="left end of schur's window; model clamps the window"
                        " to [1e-2, 1e2], parametrix uses [1e-2, 1e2] "
                        "whatever it is (default %(default)s)")
    p.add_argument("--x-max", type=float, default=defaults.x_max,
                   help="right end of schur's window, clamped and ignored as"
                        " for --x-min (default %(default)s)")
    p.add_argument("--nu", type=float, default=defaults.nu,
                   help=f"Bessel order of schur and model, above "
                        f"{WITT_FLOOR} (default %(default)s)")
    p.add_argument("--beta", type=float, default=defaults.beta,
                   help="|xi| of schur and model, nonnegative; schur's column"
                        " integral runs only at 0 (default %(default)s)")
    p.add_argument("--spectrum", type=str,
                   default=",".join(str(v) for v in defaults.spectrum),
                   help="comma-separated fiber eigenvalues, read by witt and"
                        " parametrix (default %(default)s)")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="nonnegative seed of parametrix's and scales' random"
                        " inputs (default %(default)s)")
    p.add_argument("--output", choices=("json", "csv"), default="json",
                   help="report format (default %(default)s)")
    p.add_argument("--out", type=str, default=None,
                   help="write the report to this file instead of stdout")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        spectrum = tuple(float(s) for s in args.spectrum.split(",") if s)
    except ValueError:
        print("error: --spectrum must be a comma-separated list of reals",
              file=sys.stderr)
        return 2
    cfg = RunConfig(grid_n=args.grid_n, x_min=args.x_min, x_max=args.x_max,
                    nu=args.nu, beta=args.beta, spectrum=spectrum,
                    seed=args.seed)
    try:
        records = run_suite(args.suite, cfg)
        payload = emit(records, args.output)
    except EdgespecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
    failing = [r for r in records if not r.passed]
    for r in failing:
        print(f"FAIL {r.check} [{r.param_string()}] measured="
              f"{_fmt_real(r.measured)} bound={_fmt_real(r.bound)}",
              file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
