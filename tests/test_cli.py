"""End-to-end command-line behaviour: formats, exit codes, config files."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

import widthcalc.cli as cli
from widthcalc.cli import CSV_HEADER, main, parse_extended, parse_rational
from widthcalc.params import ParameterError
from widthcalc.values import INF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# input parsing


def test_rational_parsing_accepts_only_exact_input():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-2") == F(-2)
    assert parse_extended("inf") is INF
    for bad in ("1.5", "3 / 2", "1e-3", "pi", ""):
        with pytest.raises(ParameterError):
            parse_rational(bad)


# ---------------------------------------------------------------------------
# exponent and regime


def test_exponent_text_output(capsys):
    code, out, _ = run(capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2")
    assert code == 0
    assert "case      T1.1" in out
    assert "theta     1/2 (0.500000000000)" in out


def test_exponent_json_with_grid_check(capsys, monkeypatch):
    monkeypatch.setenv("WIDTHCALC_GRID", "32")
    code, out, _ = run(
        capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--grid-check", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == {"ratio": "1/2", "decimal": "0.500000000000"}
    assert payload["agreement"] is True
    assert payload["grid"]["grid"] == 32
    assert payload["grid"]["contains"] is True
    assert payload["case"] == "T1.1"


def test_exponent_exit_codes_follow_the_regime(capsys):
    code, _, _ = run(capsys, "exponent", "--r", "1/4,1", "--p", "9/8,2", "--q", "2")
    assert code == 2  # not compact
    code, _, _ = run(capsys, "exponent", "--r", "2,2", "--p", "3,3/2", "--q", "2")
    assert code == 3  # exact tie between competing exponents


def test_exponent_flags_an_lp_disagreement(capsys, monkeypatch):
    real = cli.minimize

    def skewed(objective):
        res = real(objective)
        return dataclasses.replace(res, theta=res.theta + F(1, 977))

    monkeypatch.setattr(cli, "minimize", skewed)
    code, out, _ = run(capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2")
    assert code == 1
    assert "MISMATCH" in out


def test_regime_report_fields(capsys):
    code, out, _ = run(
        capsys, "regime", "--r", "1,1/4", "--p", "8,8/5", "--q", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "T4.1"
    assert payload["margin"]["ratio"] == "7/40"
    assert payload["exponent"]["ratio"] == "3/16"
    assert payload["regularity_sums"] == ["2", "-1/2"]
    assert payload["regularity"] is False
    assert sorted(payload["thetas"]) == ["theta1", "theta2"]


# ---------------------------------------------------------------------------
# finite


def test_finite_single_ball_irrational_value(capsys):
    code, out, _ = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "2",
        "--balls", "inf:1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "exact"
    assert payload["value"]["ratio"] is None
    assert payload["value"]["form"] == "3^(1/2)"
    assert payload["value"]["decimal"].startswith("1.7320508075")
    assert payload["case"] is None and payload["certificate"] is None


def test_finite_intersection_with_certificate(capsys):
    code, out, _ = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "2",
        "--balls", "inf:1/4,1:1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["ratio"] == "1/2"
    assert payload["branch"] == "cross-lambda"
    assert payload["case"] == "cross-lambda-dominant"
    cert = payload["certificate"]
    assert cert["kind"] == "Vk-inclusion" and cert["k"] == 4 and cert["ok"] is True
    assert cert["scale"]["ratio"] == "1/4"


def test_finite_input_validation(capsys):
    code, _, err = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "2.0", "--balls", "1:1"
    )
    assert code == 4 and "decimal notation" in err
    code, _, err = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "inf", "--balls", "2:1,3:1"
    )
    assert code == 4 and "single inf ball" in err
    code, _, err = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "2", "--balls", "3"
    )
    assert code == 4 and "p:nu" in err
    code, out, err = run(
        capsys, "finite", "--N", "16", "--n", "4", "--q", "2", "--balls", "2:-1,3:1"
    )
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("finite", "--N", "3/2", "--n", "1", "--q", "2", "--balls", "2:1,3:1"),
        ("finite", "--N", "16", "--n", "5/2", "--q", "2", "--balls", "2:1,3:1"),
        ("sweep", "--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "q",
         "--from", "2", "--to", "4", "--steps", "7/2"),
        ("sweep", "--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "n",
         "--m-vec", "3,3/2", "--from", "0", "--to", "4", "--steps", "2"),
        ("verify", "--samples", "3/2"),
        ("verify", "--samples", "0", "--seed", "1/2"),
        ("verify", "--samples", "0", "--grid", "65/2"),
        ("verify", "--samples", "0", "--identity-points", "3/2"),
    ],
)
def test_integer_flags_refuse_fractions(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: --") and "expects an integer" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_over_q_writes_ordered_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--vary", "q", "--from", "2", "--to", "4", "--steps", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["2", "3", "4"]
    assert rows[0][5] == "T1.1" and rows[2][5] == "T1.3b"
    assert all(row[2] == "1" and row[3] == "2" for row in rows)  # theta = 1/2 throughout
    assert all(row[8] == "ok" for row in rows)


def test_sweep_over_n_uses_block_profiles(capsys, tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--vary", "n", "--m-vec", "3,2", "--from", "0", "--to", "16", "--steps", "4",
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    lines = out_file.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][2:5] == ["1", "8", "0.125000000000"]
    assert rows[0][5] == "large-p"
    assert rows[1][8] == "invalid"  # n = 16/3 is not an integer
    assert rows[3][8] == "ok"


def test_sweep_rejects_unknown_axis(capsys):
    code, _, err = run(
        capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--vary", "z", "--from", "0", "--to", "1", "--steps", "2",
    )
    assert code == 4 and "--vary" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_zero_samples_passes(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "0")
    assert code == 0
    assert out.endswith("result: PASS (0 failures)\n")


def test_verify_runs_are_byte_identical(capsys):
    args = ("verify", "--samples", "18", "--seed", "42", "--grid", "32",
            "--identity-points", "1")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed=42 samples=18 grid=32" in out_a


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "9", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verification-report"
    assert payload["ok"] is True
    assert len(payload["records"]) == 9


def test_verify_fails_loudly_on_an_injected_bug(capsys, monkeypatch):
    real = cli.oracle.minimize

    def skewed(objective):
        res = real(objective)
        return dataclasses.replace(res, theta=res.theta + F(1, 977))

    monkeypatch.setattr(cli.oracle, "minimize", skewed)
    code, out, _ = run(capsys, "verify", "--samples", "9", "--seed", "1")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# config files and usage errors


def test_config_supplies_defaults_but_flags_win(capsys, tmp_path):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("# defaults\nr=1,1\np=3,3\nq=2\n")
    code, out, _ = run(capsys, "exponent", "--config", str(cfg), "--q", "4")
    assert code == 0
    assert "case      T1.3b" in out  # the explicit --q 4 overrode q=2
    code, out, _ = run(capsys, "exponent", "--config", str(cfg))
    assert code == 0 and "case      T1.1" in out


def test_config_boolean_and_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("r=1,1\np=3,3\nq=2\ngrid-check=yes\n")
    code, out, _ = run(capsys, "exponent", "--config", str(cfg))
    assert code == 0 and "grid      [" in out
    cfg.write_text("volume=11\n")
    code, _, err = run(capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2",
                       "--config", str(cfg))
    assert code == 4 and "unknown config key" in err


def test_missing_options_and_unknown_commands_exit_4(capsys):
    code, _, err = run(capsys, "exponent", "--p", "3,3", "--q", "2")
    assert code == 4 and "missing required option --r" in err
    code, _, _ = run(capsys, "widths")
    assert code == 4
    code, _, _ = run(capsys)
    assert code == 4


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "exponent" in out and "verify" in out
