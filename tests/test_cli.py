import functools
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from edgespec import bessel, cli
from edgespec.cli import CheckRecord, RunConfig, emit, main, run_suite
from edgespec.errors import PreconditionError
from edgespec.kernels import exact_weighted_norm


def _strip_runtime(payload):
    recs = json.loads(payload)
    for r in recs:
        r.pop("runtime_ms")
    return recs


def test_gb_suite_three_exact_records():
    records = run_suite("gb", RunConfig())
    assert len(records) == 3
    for r in records:
        assert r.passed
        assert r.measured == 0.0 and r.bound == 0.0


def test_unknown_suite_rejected():
    with pytest.raises(PreconditionError):
        run_suite("frobnicate", RunConfig())


def test_emit_empty_rejected():
    with pytest.raises(PreconditionError):
        emit([], "json")
    with pytest.raises(PreconditionError):
        emit(run_suite("gb", RunConfig()), "xml")


def test_json_round_trip():
    records = run_suite("witt", RunConfig())
    out = json.loads(emit(records, "json"))
    assert len(out) == 1
    rec = out[0]
    assert set(rec) == {"check", "params", "measured", "bound", "pass",
                        "runtime_ms"}
    assert rec["check"] == records[0].check
    assert rec["pass"] is records[0].passed
    assert rec["measured"] == records[0].measured


def test_csv_shape():
    records = run_suite("gb", RunConfig())
    text = emit(records, "csv").decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "check,param_string,measured,bound,pass,runtime_ms"
    assert len([ln for ln in lines if ln]) == len(records) + 1
    assert "\r" not in text


def test_csv_significant_digits():
    rec = CheckRecord("demo", {"nu": 2.0}, 1.0 / 3.0, 2.0 / 7.0, True, 5)
    row = emit([rec], "csv").decode().split("\n")[1]
    assert "0.333333333333" in row
    assert "0.285714285714" in row


def test_json_is_standard():
    # the fitted_c_* records have bound inf: RFC 8259 JSON has no Infinity,
    # so it is written as null
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    records = run_suite("parametrix", RunConfig(seed=0))
    out = json.loads(emit(records, "json"), parse_constant=reject)
    assert [r["bound"] for r in out if r["check"].startswith(
        "parametrix.fitted_c")] == [None, None]


def test_csv_non_finite():
    rec = CheckRecord("demo", {}, float("-inf"), float("inf"), False, 0)
    row = emit([rec], "csv").decode().split("\n")[1]
    assert row == "demo,,-inf,inf,false,0"


def test_deterministic_json():
    cfg = RunConfig()
    a = _strip_runtime(emit(run_suite("scales", cfg), "json"))
    b = _strip_runtime(emit(run_suite("scales", cfg), "json"))
    assert a == b


def test_records_sorted():
    records = run_suite("all", RunConfig(grid_n=100))
    keys = [(r.check, r.param_string()) for r in records]
    assert keys == sorted(keys)


def test_main_exit_codes(capsys, tmp_path):
    assert main(["gb"]) == 0
    assert main(["witt", "--spectrum", "1.0,-1.0"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    for argv in (["witt", "--gap", "nan"], ["nosuchsuite"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    out = tmp_path / "report.json"
    assert main(["gb", "--out", str(out)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize("argv", [
    ["model", "--nu", "inf"],
    ["schur", "--nu", "inf"],
    ["schur", "--nu", "1e200"],
    ["schur", "--nu", "1e80", "--beta", "1"],
    ["schur", "--beta", "1e300"],
    ["schur", "--nu", "1e20", "--beta", "1"],
    ["schur", "--x-min", "1e-320"],
    ["schur", "--x-max", "inf"],
])
def test_order_the_arithmetic_cannot_represent_is_refused(capsys, argv):
    # nu^2 overflows (inf, 1e200) or the Bessel bounds' nu^4 does (1e80);
    # every Nystrom entry underflows (beta = 1e300, nu = 1e20) or one
    # overflows (x_min = 1e-320), or the window is infinite: these once
    # passed with measured 0.0 or ran 10 000 NaN power steps.  A usage
    # error with an error line, no NaN record and no traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("suite", ["schur", "model"])
def test_infinite_beta_is_refused_by_name(capsys, suite):
    # beta = inf is no kernel: the error line names beta and its value,
    # not a Bessel argument
    assert main([suite, "--beta", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: beta must be nonnegative and finite, got inf\n")


@pytest.mark.parametrize("suite", ["all", "scales", "parametrix", "witt"])
def test_negative_seed_is_refused(capsys, suite):
    # numpy takes nonnegative seeds only: a usage error, not a traceback
    assert main([suite, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be nonnegative")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    assert main(["gb", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@functools.cache
def _schur_records(nu):
    # the schur suite at N = 400 is the costliest run here: once per order
    return tuple(run_suite("schur", RunConfig(nu=nu, beta=0.0)))


def test_schur_example_record():
    by_check = {r.check: r for r in _schur_records(2.0)}
    norm = by_check["schur.weighted_norm"]
    assert norm.measured <= 0.6
    assert norm.bound == pytest.approx((1 + 1e-6) / 3, rel=1e-12)
    assert norm.passed


# criterion 1 checks every order of its set; one order checks the wiring
@pytest.mark.parametrize("nu", [2.0])
def test_schur_suite_matches_acceptance(nu):
    by_check = {r.check: r for r in _schur_records(nu)}
    norm = by_check["schur.weighted_norm"]
    assert norm.bound == (1 + 1e-6) * exact_weighted_norm(nu, 0)
    assert all(r.passed for r in by_check.values())


def test_bessel_suite_makes_one_pass_for_the_olver_records(monkeypatch):
    # the Wronskian record's pass and one pass over the three orders
    calls = Counter()
    for name in ("_log_bessel", "_log_ik_olver"):
        def counted(*args, _fn=getattr(bessel, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bessel, name, counted)
    records = run_suite("bessel", RunConfig())
    assert [r.params["mu"] for r in records
            if r.check == "bessel.olver_vs_eta_bound"] == [10.0, 20.0, 40.0]
    assert calls == {"_log_bessel": 2, "_log_ik_olver": 1}


def test_schur_just_above_witt_floor():
    assert main(["schur", "--nu", "1.52"]) == 0


@pytest.mark.parametrize("spectrum, nus", [
    ("1.6,-1.6,2.6,-2.6", (2.1, 3.1)),  # the default spectrum
    ("-5.0", (5.5,)),
    ("3.0,-4.0", (3.5, 4.5)),
])
def test_parametrix_orders_from_every_fiber_eigenvalue(monkeypatch, spectrum,
                                                       nus):
    # nu = |s| + 1/2 for negative fiber eigenvalues too, as FiberSpectrum has
    seen = []

    def recording(u, orders, grid):
        seen.append(tuple(orders))
        return SimpleNamespace(residual_rel=0.0, fitted_c=1.0)

    monkeypatch.setattr(cli, "mapping_bounds", recording)
    assert main(["parametrix", "--spectrum", spectrum]) == 0
    assert seen == [nus, nus]


def test_parametrix_empty_spectrum_rejected(capsys):
    assert main(["parametrix", "--spectrum", ""]) == 2
    assert "spectrum" in capsys.readouterr().err
