"""End-to-end command-line behaviour: formats, exit codes, config files."""

import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import widthcalc.cli as cli
from _reference import catalog_argvs
from test_golden import ARGV as GOLDEN_ARGV
from widthcalc import finitedim
from widthcalc.cli import CSV_HEADER, main, parse_extended, parse_rational
from widthcalc.params import ParameterError, ProblemSpec
from widthcalc.values import INF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_exponent_json_with_grid_check(capsys):
    code, out, _ = run(
        capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--grid-check", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == {"ratio": "1/2", "decimal": "0.500000000000"}
    assert payload["agreement"] is True
    assert payload["grid"]["grid"] == 128
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


def test_finite_fails_a_certificate_of_another_value(capsys, monkeypatch):
    """Checks that hold are not enough: the certificate must prove the printed value."""
    builder = finitedim._vk_certificate

    def doubled(*args, **kwargs):
        cert = builder(*args, **kwargs)
        return dataclasses.replace(cert, certified_value=cert.certified_value * 2)

    monkeypatch.setattr(finitedim, "_vk_certificate", doubled)
    argv = ("finite", "--N", "16", "--n", "4", "--q", "2", "--balls", "inf:1/4,1:1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-1].startswith("cert      Vk-inclusion k=4 ")
    assert out.splitlines()[-1].endswith(" FAILED")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    cert = json.loads(out)["certificate"]
    assert cert["ok"] is False and cert["certified_value"]["ratio"] == "1/1"


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
    # A zero or negative radius is refused with one line, one ball or several.
    for balls in ("2:0", "2:0,5:1", "2:-1", "2:-1,5:1", "inf:0"):
        code, out, err = run(capsys, "finite", "--N", "8", "--n", "2", "--q", "3", "--balls", balls)
        assert (code, out, err) == (4, "", "error: ball radius must be positive\n")


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


def test_sweep_refuses_an_axis_past_the_end_of_p(capsys):
    code, out, err = run(
        capsys, "sweep", "--r", "1,1,1", "--p", "2,2", "--q", "2",
        "--vary", "p3", "--from", "2", "--to", "3", "--steps", "2",
    )
    assert (code, out, err) == (4, "", "error: --vary p3: --p has only 2 entries\n")


@pytest.mark.parametrize(
    "vary,lo,hi", [("q", "2", "3"), ("r1", "1", "2"), ("p1", "2", "3"), ("n", "2", "3"),
                   ("n", "-2", "-1")],  # the last range holds no valid rank
)
def test_sweep_refuses_mismatched_p_and_r_as_exponent_does(capsys, vary, lo, hi):
    spec = ("--r", "1,1,1", "--p", "2,2", "--q", "2")
    code, out, err = run(capsys, "exponent", *spec)
    assert (code, out) == (4, "") and err.count("\n") == 1 and err.startswith("error: ")
    got = run(
        capsys, "sweep", *spec, "--vary", vary, "--m-vec", "3,2",
        "--from", lo, "--to", hi, "--steps", "2",
    )
    assert got == (4, "", err)


def test_sweep_over_only_invalid_ranks_needs_no_valid_spec(capsys):
    code, out, _ = run(
        capsys, "sweep", "--r", "1", "--p", "3", "--q", "3",
        "--vary", "n", "--m-vec", "3,2", "--from", "-2", "--to", "-1", "--steps", "2",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["n,-2,,,,,,,invalid", "n,-1,,,,,,,invalid"]


@pytest.mark.parametrize("m_vec", ["1,1,1", "1", "1,-1"])
def test_sweep_refuses_a_block_profile_that_no_rank_can_use(capsys, m_vec):
    spec = ProblemSpec(r=(F(1), F(2)), p=(F(3), F(3, 2)), q=F(2))
    with pytest.raises(ParameterError) as refusal:
        finitedim.dyadic_block_order(spec, tuple(int(v) for v in m_vec.split(",")), 4)
    got = run(
        capsys, "sweep", "--r", "1,2", "--p", "3,3/2", "--q", "2",
        "--vary", "n", "--m-vec", m_vec, "--from", "0", "--to", "8", "--steps", "3",
    )
    assert got == (4, "", f"error: {refusal.value}\n")


def test_sweep_refuses_a_block_rank_too_large_to_build(capsys):
    # The profile is refused before the block dimension 2^(Σ m_j) is built.
    spec = ProblemSpec(r=(F(1), F(1)), p=(F(3), F(3)), q=F(2))
    with pytest.raises(ParameterError) as refusal:
        finitedim.dyadic_block_order(spec, (10**12, 0), 4)
    top = finitedim.MAX_BLOCK_RANK

    def sweep(m_vec):
        return run(
            capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
            "--vary", "n", "--m-vec", m_vec, "--from", "0", "--to", "16", "--steps", "2",
        )

    assert sweep("1000000000000,0") == (4, "", f"error: {refusal.value}\n")
    assert sweep(f"{top},1") == sweep(f"0,{top + 1}") == sweep("1000000000000,0")
    # At the bound the block is built, and its answer is not the refusal.
    code, out, err = sweep(f"{top},0")
    assert err.count("\n") == 1 and err != f"error: {refusal.value}\n"


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_sweep_refuses_an_out_path_it_cannot_write(capsys, tmp_path, where):
    out_path = tmp_path / "no-such-dir" / "rows.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(
        capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--vary", "q", "--from", "2", "--to", "3", "--steps", "2", "--out", str(out_path),
    )
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1


def test_sweep_rejects_unknown_axis(capsys):
    code, _, err = run(
        capsys, "sweep", "--r", "1,1", "--p", "3,3", "--q", "2",
        "--vary", "z", "--from", "0", "--to", "1", "--steps", "2",
    )
    assert code == 4 and "--vary" in err


@pytest.mark.parametrize(
    "lo, hi, steps",
    [
        ("3/2", "3", 7),
        ("5", "1/3", 9),  # reversed bounds
        ("7/4", "7/4", 4),  # equal bounds
        ("-5/3", "-1/7", 6),  # negative bounds
        ("-2", "11/6", 13),
        ("3/2", "3", 1),
        ("2/3", "1", 2),
    ],
)
def test_sweep_values_follow_the_interpolation_formula(lo, hi, steps):
    args = SimpleNamespace(vary="q", range_from=lo, range_to=hi, steps=str(steps))
    values = cli._sweep_values(args)
    a, b = F(lo), F(hi)
    if steps == 1:
        assert values == [a]
    else:
        assert values == [a + (b - a) * i / (steps - 1) for i in range(steps)]
    assert all(type(v) is F for v in values)


# ---------------------------------------------------------------------------
# verify


def test_verify_zero_samples_passes(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "0")
    assert code == 0
    assert out.endswith("result: PASS (0 failures)\n")


def test_verify_refuses_a_negative_identity_point_count(capsys):
    code, out, err = run(capsys, "verify", "--samples", "3", "--identity-points", "-1")
    assert (code, out) == (4, "")
    assert err == "error: --identity-points must be ≥ 0, got -1\n"


def _no_exact_work(*args, **kwargs):
    raise AssertionError("exact work started before the budget was checked")


@pytest.mark.parametrize("samples", ["0", "1"])
@pytest.mark.parametrize("grid", ["-5", "0"])
def test_verify_refuses_a_grid_below_one_before_sampling(capsys, monkeypatch, samples, grid):
    monkeypatch.setattr(cli.oracle, "cross_validate", _no_exact_work)
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "verify", "--samples", samples, "--grid", grid, "--format", fmt)
        assert (code, out) == (4, "")
        assert err == f"error: --grid must be ≥ 1, got {grid}\n"


def test_sweep_steps_are_answered_up_to_the_budget_and_refused_above(capsys, monkeypatch):
    # Non-integer ranks make `invalid` rows without a spec, so the largest
    # accepted sweep is cheap.
    n_sweep = ("sweep", "--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "n",
               "--m-vec", "1,1", "--from", "1/3", "--to", "2/3")
    code, out, _ = run(capsys, *n_sweep, "--steps", str(cli.WORK_BUDGET))
    assert code == 0 and len(out.splitlines()) == 1 + cli.WORK_BUDGET
    monkeypatch.setattr(cli, "_sweep_row_n", _no_exact_work)
    monkeypatch.setattr(cli, "_sweep_row_spec", _no_exact_work)
    for argv in (
        (*n_sweep, "--steps", str(cli.WORK_BUDGET + 1)),
        ("sweep", "--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "q",
         "--from", "3/2", "--to", "3", "--steps", "100000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: --steps ") and err.count("\n") == 1


def test_verify_checks_are_answered_up_to_the_budget_and_refused_above(capsys, monkeypatch):
    points = cli.WORK_BUDGET - 1  # one record and its identity points
    code, out, _ = run(capsys, "verify", "--samples", "1", "--identity-points", str(points))
    assert code == 0 and f"id={4 * points}" in out  # four checks per point at q > 2
    monkeypatch.setattr(cli.oracle, "cross_validate", _no_exact_work)
    for samples, points in ((1, cli.WORK_BUDGET), (cli.WORK_BUDGET + 1, 0), (3, 10**11)):
        code, out, err = run(
            capsys, "verify", "--samples", str(samples), "--identity-points", str(points)
        )
        assert (code, out) == (4, "")
        assert err.startswith(f"error: --samples {samples} ") and err.count("\n") == 1


def test_verify_runs_are_byte_identical(capsys):
    args = ("verify", "--samples", "18", "--seed", "42", "--grid", "32",
            "--identity-points", "1")
    text = [run(capsys, *args) for _ in range(2)]
    data = [run(capsys, *args, "--format", "json") for _ in range(2)]
    assert text[0] == text[1] and data[0] == data[1]
    assert text[0][0] == data[0][0] == 0
    assert "seed=42 samples=18 grid=32" in text[0][1]
    assert text[0][1].endswith("result: PASS (0 failures)\n")
    payload = json.loads(data[0][1])
    assert payload["ok"] is True
    assert payload["branches"] == {label: 2 for label in cli.oracle.BRANCH_LABELS}


@pytest.mark.parametrize("grid_env", ["32", "bogus"])
def test_the_lattice_grid_ignores_the_environment(capsys, monkeypatch, grid_env):
    # The lattice grid comes from the command line alone: no environment
    # variable, WIDTHCALC_GRID included, changes the bytes or the exit code.
    calls = [
        ("verify", "--samples", "9", "--seed", "3"),
        ("exponent", "--r", "1,1", "--p", "3,3", "--q", "2", "--grid-check", "--format", "json"),
    ]
    monkeypatch.delenv("WIDTHCALC_GRID", raising=False)
    unset = [run(capsys, *argv) for argv in calls]
    monkeypatch.setenv("WIDTHCALC_GRID", grid_env)
    assert [run(capsys, *argv) for argv in calls] == unset
    assert [code for code, _, _ in unset] == [0, 0]


def test_verify_json_report(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--samples", "9", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verification-report"
    assert payload["ok"] is True
    assert len(payload["records"]) == 9
    # `--format` replaced `--json`, on the command line and in config files.
    code, out, flag_err = run(capsys, "verify", "--samples", "0", "--json")
    assert code == 4 and out == ""
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("--json\n")
    code, out, err = run(capsys, "verify", "--samples", "0", "--config", str(cfg))
    assert code == 4 and out == "" and err == flag_err
    assert err.endswith("error: unrecognized arguments: --json\n")


# ---------------------------------------------------------------------------
# the JSON writer


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def test_json_writer_matches_json_dumps_on_every_catalog_payload(monkeypatch):
    payloads = []
    write = cli._json

    def record(value, indent="\n"):
        if indent == "\n":  # a whole report; nested values carry spaces
            payloads.append(value)
        return write(value, indent)

    monkeypatch.setattr(cli, "_json", record)
    argvs = [argv + ["--format", "json"] if argv[0] == "verify" else argv
             for argv in catalog_argvs() if argv[0] != "sweep"]
    argvs.append(["verify", "--samples", "60", "--seed", "42", "--format", "json"])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            main(argv)
    assert len(payloads) == len(argvs) > 6000
    for payload in payloads:
        assert write(payload) == _dumps(payload)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-(2**70)) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(), json_values))
@example({"": [], "a": {}, "b": [{}, [[]], {"c": []}], "\x00\x1f\"\\é\u2028\U0001f600": -(10**40)})
def test_json_writer_matches_json_dumps_on_generated_payloads(payload):
    assert cli._json(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [1.5, (1, 2), {"a": [0.0]}, {"a": (1,)}, {1: "a"}])
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli._json(payload)


def test_verify_fails_loudly_on_an_injected_bug(capsys, monkeypatch):
    real = cli.oracle.minimize

    def skewed(objective):
        res = real(objective)
        return dataclasses.replace(res, theta=res.theta + F(1, 977))

    monkeypatch.setattr(cli.oracle, "minimize", skewed)
    code, out, _ = run(capsys, "verify", "--samples", "9", "--seed", "1")
    assert code == 1
    assert out.endswith("result: FAIL (9 failures)\n")


def test_verify_fails_on_a_wrong_argmin_with_the_right_theta(capsys, monkeypatch):
    # θ agrees with the closed form, so only the LP's certificate, checked
    # at the argmin, sees the mutant.
    real = cli.oracle.minimize

    def reversed_argmin(objective):
        res = real(objective)
        return dataclasses.replace(res, argmin_alpha=res.argmin_alpha[::-1])

    monkeypatch.setattr(cli.oracle, "minimize", reversed_argmin)
    code, out, _ = run(capsys, "verify", "--samples", "9", "--seed", "1")
    assert code == 1
    failed = [line for line in out.splitlines() if "FAIL(" in line]
    assert failed and all("FAIL(certificate: " in line for line in failed)
    assert "closed=" not in out


# ---------------------------------------------------------------------------
# config files and usage errors


def test_config_supplies_defaults_but_flags_win(capsys, tmp_path):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("# defaults\n--r 1,1\n--p=3,3\n--q 2\n")
    code, out, _ = run(capsys, "exponent", "--config", str(cfg), "--q", "4")
    assert code == 0
    assert "case      T1.3b" in out  # the explicit --q 4 overrode --q 2
    code, out, _ = run(capsys, "exponent", "--config", str(cfg))
    assert code == 0 and "case      T1.1" in out


def test_config_that_is_not_utf8_is_refused(capsys, tmp_path):
    cfg = tmp_path / "widths.cfg"
    cfg.write_bytes(b"--r 1,1\n\xff\xfe 2\n")
    code, out, err = run(capsys, "exponent", "--p", "3,3", "--q", "2", "--config", str(cfg))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1


def test_config_boolean_and_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("--r 1,1 --p 3,3 --q 2\n--grid-check\n")
    code, out, _ = run(capsys, "exponent", "--config", str(cfg))
    assert code == 0 and "grid      [" in out
    # A file option is refused exactly as the same flag on the command line is.
    spec = ("--r", "1,1", "--p", "3,3", "--q", "2")
    for text in ("--volume 11\n", "--grid-check=yes\n"):
        cfg.write_text(text)
        code, out, err = run(capsys, "exponent", *spec, "--config", str(cfg))
        assert (code, out) == (4, "")
        assert (code, out, err) == run(capsys, "exponent", *spec, *text.split())


def test_config_keys_are_the_option_names(capsys, tmp_path):
    spec = ("--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "n", "--m-vec", "3,2")
    code, want, _ = run(capsys, "sweep", *spec, "--from", "0", "--to", "16", "--steps", "4")
    assert code == 0 and want.count(",ok\n") == 2
    cfg = tmp_path / "sweep.cfg"
    # `--from` and `--to` store under other names; a file names the flag, in
    # either of its spellings, and may shorten it as the command line may.
    for text in ("--from 0\n--to 16\n--steps 4\n", "--from=0 --to=16 --ste 4\n"):
        cfg.write_text(text)
        assert run(capsys, "sweep", *spec, "--config", str(cfg)) == (0, want, "")
    # The name an option stores under is not a flag, in a file or out of one.
    cfg.write_text("--range-from 0\n--to 16\n--steps 4\n")
    code, out, err = run(capsys, "sweep", *spec, "--config", str(cfg))
    assert (code, out) == (4, "") and "unrecognized arguments: --range-from 0" in err


@pytest.mark.parametrize(
    "argv,config",
    [(["exponent"], "--r 1,1\n--p 3,3\n--q 2\n"), (["verify", "--samples", "1"], "")],
    ids=["exponent", "verify"],
)
def test_config_choices_are_checked_like_the_flag(capsys, tmp_path, argv, config):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text(config + "--format=xml\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 4 and out == ""
    assert err.endswith(
        "error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n")
    # The flag gives the same usage and error lines.
    cfg.write_text(config)
    assert run(capsys, *argv, "--config", str(cfg), "--format", "xml") == (4, "", err)
    # A valid choice from the file still applies.
    cfg.write_text(config + "--format=json\n")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0 and json.loads(out)


def _module_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_matches_cli_main(capsys, monkeypatch):
    for argv in (
        ["regime", "--r", "1,2", "--p", "3,3/2", "--q", "4"],
        ["exponent", "--r", "1,2", "--p", "3,3/2", "--q", "2", "--bogus", "1"],
    ):
        # `python -m widthcalc` calls main(None), which reads sys.argv[1:].
        monkeypatch.setattr(sys, "argv", ["widthcalc", *argv])
        code = main(None)
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "widthcalc", *argv], capture_output=True,
            env=_module_env(), timeout=60,
        )
        assert proc.returncode == code
        assert proc.stdout == out.encode() and proc.stderr == err.encode()


CLOSED_STDOUT_ARGV = {
    "exponent-text": ["exponent", "--r", "1,1", "--p", "3,3", "--q", "2"],
    "exponent-json": ["exponent", "--r", "1,1", "--p", "3,3", "--q", "2", "--format", "json"],
    "regime": ["regime", "--r", "1,2", "--p", "3,3/2", "--q", "4"],
    "finite": ["finite", "--N", "4096", "--n", "512", "--q", "4", "--balls", "inf:1/64,3:1/4"],
    "sweep": ["sweep", "--r", "1,1,2", "--p", "3,3/2,5", "--q", "4", "--vary", "n",
              "--m-vec", "3,2,1", "--from", "8", "--to", "32", "--steps", "7"],
    "verify": ["verify", "--samples", "9", "--seed", "42"],
    "help": ["--help"],
    "exponent-help": ["exponent", "--help"],
}


@pytest.mark.parametrize("argv", CLOSED_STDOUT_ARGV.values(), ids=CLOSED_STDOUT_ARGV)
def test_a_closed_stdout_is_refused_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "widthcalc", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_module_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 4
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert b"Traceback" not in proc.stderr


def _config_text(options) -> str:
    """`options`, the tokens after a command name, as config lines: each
    option with its value, alternately as `--opt value` and `--opt=value`,
    with a comment and a blank line."""
    groups = []
    for token in options:
        if token.startswith("--"):
            groups.append([token])
        else:
            groups[-1].append(token)
    lines = ["# written from an argv", ""]
    for i, group in enumerate(groups):
        if len(group) == 2 and i % 2:
            group = ["=".join(group)]
        lines.append(" ".join(map(shlex.quote, group)))
    return "\n".join(lines) + "\n"


_OTHER_FORMAT = {"text": "json", "json": "text"}


# Every golden argv, and every command of the closed-stdout checks.
ROUND_TRIP_ARGV = {name: list(argv) for name, argv in GOLDEN_ARGV} | {
    f"closed-stdout-{name}": argv for name, argv in CLOSED_STDOUT_ARGV.items()
    if not argv[0].startswith("-")
}


@pytest.mark.parametrize("argv", ROUND_TRIP_ARGV.values(), ids=ROUND_TRIP_ARGV)
def test_a_config_file_gives_the_argv_it_was_written_from(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "argv.cfg"
    cfg.write_text(_config_text(argv[1:]))
    assert _outcome([argv[0], "--config", str(cfg)]) == _outcome(argv)
    # A flag after --config overrides the file's value.
    if "--format" in argv:
        other = _OTHER_FORMAT[argv[argv.index("--format") + 1]]
        want = _outcome([*argv, "--format", other])
        assert _outcome([argv[0], "--config", str(cfg), "--format", other]) == want


CONFIG_REFUSALS = {
    "missing-file": None,
    "not-utf8": b"--r 1,1\n\xff\n",
    "unclosed-quote": b'--r "1,1\n',
    "unknown-option": b"--r 1,1\n--volume 11\n",
    "bad-choice": b"--format=xml\n",
}


@pytest.mark.parametrize("content", CONFIG_REFUSALS.values(), ids=CONFIG_REFUSALS)
def test_bad_config_files_are_refused_without_a_traceback(capsys, tmp_path, content):
    cfg = tmp_path / "widths.cfg"
    if content is not None:
        cfg.write_bytes(content)
    argv = ["exponent", "--p", "3,3", "--q", "2", "--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    *usage, last = err.splitlines()
    assert "error: " in last and all(line.startswith(("usage: ", " ")) for line in usage)
    proc = subprocess.run(
        [sys.executable, "-m", "widthcalc", *argv], capture_output=True,
        env=_module_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, b"", err.encode())


def test_a_config_file_that_names_itself_is_read_once(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text(f"--config {shlex.quote(str(cfg))}\n--r 1,1 --p 3,3 --q 2\n")
    reads = []
    read = cli._config_args
    monkeypatch.setattr(cli, "_config_args", lambda path: reads.append(path) or read(path))
    code, out, err = run(capsys, "exponent", "--config", str(cfg))
    assert reads == [str(cfg)]
    assert (code, out, err) == run(capsys, "exponent", "--r", "1,1", "--p", "3,3", "--q", "2")
    assert code == 0


def test_missing_options_and_unknown_commands_exit_4(capsys):
    code, _, err = run(capsys, "exponent", "--p", "3,3", "--q", "2")
    assert code == 4 and "missing required option --r" in err
    code, _, _ = run(capsys, "widths")
    assert code == 4
    code, _, _ = run(capsys)
    assert code == 4


def test_refusal_of_an_over_long_result_prints_nothing(capsys):
    # θ has more digits than `str` converts, so it fails to render after the
    # case line is known; the report must not be written in part.
    big = 10**3999
    code, out, err = run(capsys, "exponent", "--r", f"{big + 7},{big + 9}", "--p", "3,3",
                         "--q", "2")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "exponent" in out and "verify" in out


def test_one_parser_serves_back_to_back_calls(tmp_path, monkeypatch):
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("--r 1,1 --p 3,3 --q 2\n")
    calls = [
        ["exponent", "--config", str(cfg)],
        ["exponent", "--bogus"],
        ["finite", "--N", "8", "--n", "x", "--q", "2", "--balls", "1:1"],
        ["--help"],
        ["exponent", "--r", "1,1", "--p", "3,3", "--q", "4", "--format", "json"],
        ["sweep", "--help"],
        ["exponent", "--config", str(cfg), "--grid-check"],
        ["regime", "--config", str(cfg)],
        ["exponent", "--config", str(cfg)],
    ]

    monkeypatch.setenv("COLUMNS", "80")
    shared = [_outcome(argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 4, 4, 0, 0, 0, 0, 0, 0]
    assert shared[0] == shared[-1]
    assert "grid      [" in shared[6][1] and "grid      [" not in shared[8][1]


# ---------------------------------------------------------------------------
# every argv ends in an exit code

M61, M89, M107 = 2**61 - 1, 2**89 - 1, 2**107 - 1  # Mersenne primes
SEMIPRIMES = [M61 * M89, M89 * M107, 1000003 * 998244353]

rational_text = st.one_of(
    st.fractions(min_value=F(1, 8), max_value=F(12), max_denominator=8).map(str),
    st.integers(min_value=-3, max_value=12).map(str),
    st.integers(min_value=10**15, max_value=10**400).map(str),
    st.sampled_from(SEMIPRIMES).map(str),
    st.sampled_from(SEMIPRIMES).map(lambda n: f"1/{n}"),
    st.sampled_from(["inf", "0", "1/0", "-1/2", "1.5", "2e3", "", "x", "9" * 5000]),
)
exponent_text = st.one_of(
    st.fractions(min_value=F(1), max_value=F(9), max_denominator=6).map(str),
    st.just("inf"),
    rational_text,
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["exponent", "regime", "finite", "sweep", "verify"]))
    argv = [command]

    def opt(flag, strategy, tenths_present=9):
        if draw(st.integers(0, 9)) < tenths_present:
            argv.extend([flag, draw(strategy)])

    if command in ("exponent", "regime", "sweep"):
        d = draw(st.integers(min_value=1, max_value=3))
        opt("--r", st.lists(rational_text, min_size=d, max_size=d).map(",".join))
        opt("--p", st.lists(exponent_text, min_size=d, max_size=d).map(",".join))
        opt("--q", exponent_text)
    if command != "sweep":
        opt("--format", st.sampled_from(["text", "json"]), tenths_present=5)
    if command == "exponent" and draw(st.booleans()):
        argv.append("--grid-check")
    if command == "finite":
        opt("--N", st.one_of(st.integers(-2, 2**12).map(str), rational_text))
        opt("--n", st.one_of(st.integers(-2, 2**10).map(str), rational_text))
        opt("--q", exponent_text)
        ball = st.tuples(exponent_text, rational_text).map(":".join)
        opt("--balls", st.lists(ball, min_size=1, max_size=3).map(",".join))
    if command == "sweep":
        opt("--vary", st.sampled_from(["q", "p1", "r1", "p2", "r3", "n", "z"]))
        opt("--from", rational_text)
        opt("--to", rational_text)
        opt("--steps", st.sampled_from(["-1", "0", "1", "2", "4", "3/2"]))
        opt("--m-vec", st.lists(st.integers(-1, 40).map(str), min_size=1, max_size=3)
            .map(",".join), tenths_present=5)
    if command == "verify":
        opt("--samples", st.sampled_from(["0", "1", "2", "-1", "1/2"]), tenths_present=10)
        opt("--seed", st.integers(-5, 2**40).map(str))
        opt("--grid", st.sampled_from(["0", "1", "4", "16", "-3", "10**9", "4000"]), tenths_present=5)
        opt("--identity-points", st.sampled_from(["0", "1", "2", "-1"]), tenths_present=5)
    return argv


@settings(max_examples=600, deadline=5000, derandomize=True)
@given(argvs())
@example(["exponent", "--r", "1,1", "--p", "3,3", "--q", "1/0"])
@example(["finite", "--N", str(M61 * M89), "--n", "8", "--q", "34/7", "--balls", "0:1"])
@example(["sweep", "--r", "1,1", "--p", "3,3", "--q", "2", "--vary", "n",
          "--m-vec", "100000,1", "--from", "0", "--to", "16", "--steps", "2"])
def test_every_argv_ends_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
