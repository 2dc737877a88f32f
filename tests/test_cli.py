"""End-to-end command-line behaviour: formats, exit codes, config files."""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_verify_refuses_a_negative_identity_point_count(capsys):
    code, out, err = run(capsys, "verify", "--samples", "3", "--identity-points", "-1")
    assert (code, out) == (4, "")
    assert err == "error: --identity-points must be ≥ 0, got -1\n"


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
    cfg.write_text("r=1,1\np=3,3\nq=2\n")
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

    def outcomes():
        seen = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            seen.append((code, out.getvalue(), err.getvalue()))
        return seen

    monkeypatch.setenv(cli.oracle.GRID_ENV, "16")
    monkeypatch.setenv("COLUMNS", "80")
    shared = outcomes()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes()
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
    if command in ("exponent", "regime", "finite"):
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
        if draw(st.booleans()):
            argv.append("--json")
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
