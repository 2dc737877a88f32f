"""Command-line front end.

Subcommands:

  exponent   decay exponent of one problem spec (closed form + LP route)
  regime     full regime classification report
  finite     width order of a finite-dimensional ball or intersection
  sweep      CSV sweep of one parameter (rows in input order)
  verify     randomized cross-validation of the independent routes

Exit codes: 0 success, 1 verification failure, 2 the embedding is not
compact, 3 the spec falls outside the covered cases (including exact
ties between competing exponents), 4 usage or parameter errors.

All numeric inputs are exact rationals written as "a/b" or "a"; decimal
input is rejected.  "inf" is accepted only where the exact width formula
allows it (ball exponents, and q for a single p = inf ball).  JSON output
renders every numeric as {"ratio": "a/b", "decimal": <12 significant
digits>}; irrational width values carry a "form" field instead of a
ratio.  A JSON report is written with its keys sorted and an indent of two
spaces, in the bytes of `json.dumps(..., sort_keys=True, indent=2)`, by a
small writer (`_json`) that skips the standard library's pure-Python
indenting encoder.  The options after a command name are parsed by that
command's own parser, in one pass, with the usage lines and errors of
argparse.  A `--config` file holds more of those options, split as a shell
splits them (`#` comments allowed); it is read before the command line,
whose flags win, and its own `--config` is not followed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import shlex
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import closedform, oracle
from .exponent import build_objective, minimize, render_provenance
from .finitedim import (
    BallSpec,
    IntersectionSpec,
    block_profile,
    classify_branch,
    dyadic_block_order,
    intersection_order,
    single_ball_order,
)
from .params import ParameterError, ProblemSpec
from .values import INF, PowerProduct, decimal_str, is_inf

__all__ = ["main"]

CSV_HEADER = [
    "varying",
    "value",
    "theta_num",
    "theta_den",
    "theta_decimal",
    "regime",
    "unique",
    "compact",
    "status",
]

#: The most exact checks one command may ask for: the rows of a sweep, or
#: the records of a verify run plus their identity points.  It is refused
#: above this before any exact work starts.  The largest request in the
#: goldens, tests, demos and benchmark catalogs is `verify --samples 500`
#: with its 2 default identity points, 1500 checks.
WORK_BUDGET = 10_000

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    match = _RATIONAL_RE.match(t)
    if not match:
        raise ParameterError(
            f"expected an exact rational like 3 or 3/2, got {text!r} "
            "(decimal notation is not accepted)"
        )
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ParameterError(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than the interpreter converts
        raise ParameterError(f"number too long to read ({len(t)} characters)") from None


def parse_integer(text: str, flag: str) -> int:
    value = parse_rational(text)
    if value.denominator != 1:
        raise ParameterError(f"{flag} expects an integer, got {text!r}")
    return int(value)


def parse_extended(text: str):
    if text.strip() == "inf":
        return INF
    return parse_rational(text)


def parse_rational_tuple(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def json_rational(x: Fraction | None) -> dict | None:
    """A rational as the JSON {"ratio": "a/b", "decimal": ...}; None stays None."""
    if x is None:
        return None
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": decimal_str(x)}


def _json_value(v: PowerProduct) -> dict:
    out: dict = {"decimal": v.decimal(12)}
    if v.is_rational:
        f = v.as_fraction()
        out["ratio"] = f"{f.numerator}/{f.denominator}"
    else:
        out["ratio"] = None
        out["form"] = str(v)
    return out


def _json_thetas(thetas: dict[str, Fraction]) -> dict:
    return {name: json_rational(theta) for name, theta in thetas.items()}


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _fmt_tuple(values) -> str:
    return ",".join(str(v) for v in values)


def _flag(value: bool) -> str:
    return str(value).lower()


def _exact(x: Fraction) -> str:
    return f"{x} ({decimal_str(x)})"


def _json(value, indent: str = "\n") -> str:
    """`value` in the bytes of `json.dumps(value, sort_keys=True, indent=2)`.

    A report holds str keys and str, int, bool, None, list and dict values;
    anything else raises TypeError.  `indent` is the newline and spaces
    that open `value`'s own line.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int: a bool is an int too
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items = [_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"{type(value).__name__} is not a JSON report value")


def _show(args: argparse.Namespace, width: int, fields) -> None:
    """Print one report, as JSON or as text lines, from its table of fields.

    A field is (JSON key, text label, value, JSON form, text form), each
    form a function of the value.  A field with no key is text only, one
    with no label JSON only.  A None value is null in JSON and prints no
    text line, and so does a text form that returns None.  A text line is
    the label padded to `width`, a space and the text; an empty label
    prints the text alone.  Only the chosen format's forms are called, and
    the whole report is written at once, so a refusal leaves no partial
    output.
    """
    if args.format == "json":
        payload = {key: None if value is None else form(value)
                   for key, _, value, form, _ in fields if key is not None}
        sys.stdout.write(_json(payload) + "\n")
        return
    lines = []
    for _, label, value, _, form in fields:
        if label is not None and value is not None and (text := form(value)) is not None:
            lines.append(f"{label:{width}} {text}\n" if label else f"{text}\n")
    sys.stdout.write("".join(lines))


# ---------------------------------------------------------------------------
# config files


def _config_args(path: str) -> list[str]:
    """The arguments in a config file, split as a shell splits them, `#`
    comments dropped."""
    try:
        with open(path, encoding="utf-8") as fh:
            return shlex.split(fh.read(), comments=True)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"missing required option --{name.replace('_', '-')}")


def _build_spec(args: argparse.Namespace) -> ProblemSpec:
    _require(args, "r", "p", "q")
    return ProblemSpec(
        r=parse_rational_tuple(args.r),
        p=parse_rational_tuple(args.p),
        q=parse_rational(args.q),
    )


def _regime_exit(report: closedform.RegimeReport) -> int:
    if not report.compact:
        return 2
    if report.case == "uncovered":
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exponent(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    report = closedform.classify_regime(spec)
    result = minimize(build_objective(spec))
    failures = oracle.check_certificate(spec, result) if args.check else None
    # The binding pieces, those of dual weight λ > 0.
    binding = [render_provenance(tag) for tag, _ in result.weights] if args.check else None
    closed_ok = report.exponent is None or report.exponent == result.theta
    margin = spec.compact_margin()
    _show(args, 9, [
        ("case", "case", report.case, str, str),
        ("theta", "theta", result.theta, json_rational, _exact),
        ("closed_form", "closed", report.exponent, json_rational,
         lambda e: f"{e} ({'match' if closed_ok else 'MISMATCH'})"),
        ("argmin_alpha", "argmin", result.argmin_alpha, _strs,
         lambda alpha: f"alpha={_fmt_tuple(alpha)}"
         + ("" if result.argmin_s is None else f" s={result.argmin_s}")),
        ("argmin_s", None, result.argmin_s, str, None),
        ("unique", "unique", result.unique, bool, _flag),
        ("active", "active", [render_provenance(t) for t in result.active_pieces], list, ", ".join),
        ("compact", "compact", report.compact, bool, lambda c: f"{_flag(c)} (margin {margin})"),
        ("tie", None, report.tie, bool, None),
        ("thetas", None, report.thetas, _json_thetas, None),
        ("margin", None, margin, json_rational, None),
        ("certificate", "cert", failures,
         lambda f: {"ok": not f, "binding": binding, "failures": f},
         lambda f: "FAILED: " + "; ".join(f) if f else f"ok (binding {', '.join(binding)})"),
        ("agreement", None, closed_ok, bool, None),
    ])
    if not closed_ok or failures:
        return 1
    return _regime_exit(report)


def _cmd_regime(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    report = closedform.classify_regime(spec)
    _show(args, 11, [
        ("case", "case", report.case, str, str),
        ("bounded", "bounded", report.bounded, bool, _flag),
        ("compact", "compact", report.compact, bool, _flag),
        ("regularity", "regularity", report.regularity, bool, _flag),
        ("margin", "margin", spec.compact_margin(), json_rational, str),
        ("exponent", "exponent", report.exponent, json_rational, _exact),
        ("thetas", None, report.thetas, _json_thetas, None),
        *((None, name, report.thetas[name], None, str) for name in sorted(report.thetas)),
        ("tie", "tie", report.tie, bool, lambda tie: "true" if tie else None),
        ("regularity_sums", None, spec.reg_sums, _strs, None),
    ])
    return _regime_exit(report)


def _parse_balls(text: str):
    balls = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ParameterError(f"ball {chunk!r} must look like p:nu, e.g. 3/2:1/4")
        p_text, _, nu_text = chunk.partition(":")
        balls.append((parse_extended(p_text), parse_rational(nu_text)))
    return balls


def _cmd_finite(args: argparse.Namespace) -> int:
    _require(args, "N", "n", "q", "balls")
    N = parse_integer(args.N, "--N")
    n = parse_integer(args.n, "--n")
    q = parse_extended(args.q)
    balls = _parse_balls(args.balls)
    if len(balls) == 1:
        base = single_ball_order(N, n, balls[0][0], q)
        ball = BallSpec(*balls[0])
        order = type(base)(base.value * ball.nu, base.branch)
        case, cert = None, None
    else:
        if is_inf(q):
            raise ParameterError("q = inf is only supported for a single inf ball")
        spec = IntersectionSpec(N=N, n=n, q=q, balls=tuple(balls))
        order = intersection_order(spec)
        case, cert = classify_branch(spec)
    # A certificate counts only if its checks hold and it proves the printed value.
    cert_ok = cert is None or (cert.verify() and cert.certified_value == order.value)
    # Rendering a power product is costly, so the value's JSON is built at most once.
    value = functools.cache(lambda: _json_value(order.value))

    def cert_json(c) -> dict:
        certified = value() if c.certified_value == order.value else _json_value(c.certified_value)
        return {"kind": c.kind, "k": c.k, "scale": _json_value(c.scale),
                "certified_value": certified, "checks": len(c.checked), "ok": cert_ok,
                "note": c.note}

    _show(args, 9, [
        ("N", None, N, int, None),
        ("n", None, n, int, None),
        ("q", None, q, str, None),
        ("value", "value", order.value, lambda _: value(), lambda v: f"{v} ({v.decimal(12)})"),
        ("branch", "branch", order.branch, str, str),
        ("case", "case", case, str, str),
        ("certificate", "cert", cert, cert_json,
         lambda c: f"{c.kind} k={c.k} scale={c.scale} value={c.certified_value} "
                   f"checks={len(c.checked)} {'ok' if cert_ok else 'FAILED'}"),
    ])
    return 0 if cert_ok else 1


def _sweep_values(args: argparse.Namespace) -> list[Fraction]:
    _require(args, "vary", "range_from", "range_to", "steps")
    lo = parse_rational(args.range_from)
    hi = parse_rational(args.range_to)
    steps = parse_integer(args.steps, "--steps")
    if steps < 1:
        raise ParameterError(f"--steps must be ≥ 1, got {steps}")
    if steps > WORK_BUDGET:
        raise ParameterError(f"--steps {steps} asks for more than {WORK_BUDGET} rows")
    if steps == 1:
        return [lo]
    # lo + (hi − lo)·i/m = (a·e·(m − i) + c·b·i)/(b·e·m) for lo = a/b, hi = c/e.
    m = steps - 1
    a, b = lo.numerator, lo.denominator
    c, e = hi.numerator, hi.denominator
    return [Fraction(a * e * (m - i) + c * b * i, b * e * m) for i in range(steps)]


def _sweep_row_spec(
    vary: str, r: tuple[Fraction, ...], p: tuple[Fraction, ...], q: Fraction, value: Fraction
) -> list[str]:
    r, p = list(r), list(p)
    if vary == "q":
        q = value
    elif vary.startswith("p"):
        p[int(vary[1:]) - 1] = value
    else:
        r[int(vary[1:]) - 1] = value
    try:
        spec = ProblemSpec(r=tuple(r), p=tuple(p), q=q)
    except ParameterError:
        return _invalid_row(vary, value)
    report = closedform.classify_regime(spec)
    result = minimize(build_objective(spec))
    theta = report.exponent if report.exponent is not None else result.theta
    if report.case == "T3-noncompact":
        status = "non-compact"
    elif report.case == "uncovered":
        status = "tie" if report.tie else "uncovered"
    else:
        status = "ok"
    return [
        vary,
        str(value),
        str(theta.numerator),
        str(theta.denominator),
        decimal_str(theta),
        report.case,
        str(result.unique).lower(),
        str(report.compact).lower(),
        status,
    ]


def _is_block_rank(value: Fraction) -> bool:
    return value.denominator == 1 and value >= 0


def _invalid_row(vary: str, value: Fraction) -> list[str]:
    return [vary, str(value), *[""] * 6, "invalid"]


def _sweep_row_n(spec: ProblemSpec | None, m_vec: tuple[int, ...], value: Fraction) -> list[str]:
    if not _is_block_rank(value):
        return _invalid_row("n", value)
    try:
        order = dyadic_block_order(spec, m_vec, int(value))
    except ParameterError:
        return _invalid_row("n", value)
    if order.value.is_rational:
        f = order.value.as_fraction()
        num, den, dec = str(f.numerator), str(f.denominator), decimal_str(f)
    else:
        num, den, dec = "", "", order.value.decimal(12)
    return ["n", str(value), num, den, dec, order.branch, "", "", "ok"]


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "r", "p", "q")
    values = _sweep_values(args)
    vary = args.vary
    d = len(args.r.split(","))
    valid = {"q", "n"} | {f"p{i+1}" for i in range(d)} | {f"r{i+1}" for i in range(d)}
    if vary not in valid:
        raise ParameterError(f"--vary must be one of {sorted(valid)}, got {vary!r}")
    if vary == "n":
        _require(args, "m_vec")
        m_vec = tuple(parse_integer(v, "--m-vec") for v in args.m_vec.split(","))
        # A range holding no valid rank gives only `invalid` rows; it needs no
        # spec, unless |p| ≠ |r|, which no rank can mend.  Nor can a rank mend
        # a profile that the spec cannot use, so that is refused too.
        needs_spec = len(args.p.split(",")) != d or any(_is_block_rank(v) for v in values)
        spec = _build_spec(args) if needs_spec else None
        if spec is not None:
            block_profile(spec, m_vec)
        rows = [_sweep_row_n(spec, m_vec, v) for v in values]
    else:
        r, p, q = parse_rational_tuple(args.r), parse_rational_tuple(args.p), parse_rational(args.q)
        if vary.startswith("p") and int(vary[1:]) > len(p):
            raise ParameterError(f"--vary {vary}: --p has only {len(p)} entries")
        if len(p) != len(r):
            _build_spec(args)  # no value of the axis mends |p| ≠ |r|: refuse as `exponent` does
        rows = [_sweep_row_spec(vary, r, p, q, v) for v in values]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    samples = parse_integer(args.samples, "--samples")
    seed = parse_integer(args.seed, "--seed")
    if samples < 0:
        raise ParameterError(f"--samples must be ≥ 0, got {samples}")
    points = parse_integer(args.identity_points, "--identity-points")
    if points < 0:
        raise ParameterError(f"--identity-points must be ≥ 0, got {points}")
    if samples * (1 + points) > WORK_BUDGET:
        raise ParameterError(
            f"--samples {samples} with {points} identity points each asks for"
            f" {samples * (1 + points)} checks, more than {WORK_BUDGET}"
        )
    report = oracle.cross_validate(samples, seed, identity_points=points)
    failed = sum(not rec.ok for rec in report.records)
    _show(args, 0, [
        ("kind", None, "verification-report", str, None),
        (None, "", "widthcalc verification report", None, str),
        ("seed", "", report.seed, int,
         lambda seed: f"seed={seed} samples={report.samples}"),
        ("samples", None, report.samples, int, None),
        ("ok", None, report.ok, bool, None),
        ("branches", "branches:", report.branch_counts(), dict,
         lambda counts: " ".join(f"{k}={counts[k]}" for k in sorted(counts)) or "none"),
        ("records", None, report.records, lambda records: [_record_json(r) for r in records], None),
        *((None, "", rec, None, _record_text) for rec in report.records),
        (None, "result:", failed, None, lambda n: f"{'FAIL' if n else 'PASS'} ({n} failures)"),
    ])
    return 0 if report.ok else 1


def _record_json(rec: oracle.ValidationRecord) -> dict:
    return {
        "branch": rec.branch,
        "r": _strs(rec.spec.r),
        "p": _strs(rec.spec.p),
        "q": str(rec.spec.q),
        "case": rec.case,
        "theta": json_rational(rec.theta),
        "theta_lp": json_rational(rec.theta_lp),
        "identity_points": rec.identity_points,
        "ok": rec.ok,
        "detail": rec.detail,
    }


def _record_text(rec: oracle.ValidationRecord) -> str:
    spec = rec.spec
    parts = [rec.branch, f"r={_fmt_tuple(spec.r)}", f"p={_fmt_tuple(spec.p)}", f"q={spec.q}",
             f"case={rec.case}", f"theta={rec.theta}", f"lp={rec.theta_lp}"]
    if rec.identity_points:
        parts.append(f"id={rec.identity_points}")
    parts.append("ok" if rec.ok else f"FAIL({rec.detail})")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parser

_FORMATS = ("text", "json")


def _add_common(sub: argparse.ArgumentParser, *, spec_opts: bool) -> None:
    sub.add_argument("--config", help="file of arguments read before the command line")
    if spec_opts:
        sub.add_argument("--r", help="smoothness orders, e.g. 1,1 or 3/2,2")
        sub.add_argument("--p", help="integrability exponents, e.g. 3,3/2")
        sub.add_argument("--q", help="target exponent, e.g. 2 or 7/3")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help is written as any other output is.

    argparse drops an `OSError` from writing help, so on a closed stdout
    `--help` would exit 0 in silence; here it reaches `main`, which refuses
    it.  The subparsers are built from this class too, and the program's
    parser keeps them by command name in `commands`.
    """

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="widthcalc",
        description="decay exponents and finite-dimensional width orders",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exponent", help="decay exponent of one spec")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--check", action="store_true",
                     help="also check the LP answer's duality certificate")
    sub.add_argument("--format", choices=_FORMATS, default="text")
    sub.set_defaults(func=_cmd_exponent)

    sub = subs.add_parser("regime", help="regime classification report")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--format", choices=_FORMATS, default="text")
    sub.set_defaults(func=_cmd_regime)

    sub = subs.add_parser("finite", help="finite-dimensional width order")
    _add_common(sub, spec_opts=False)
    sub.add_argument("--N", help="ambient dimension")
    sub.add_argument("--n", help="approximation rank")
    sub.add_argument("--q", help="target norm exponent (inf allowed for one inf ball)")
    sub.add_argument("--balls", help="comma list of p:nu, e.g. inf:1/4,1:1")
    sub.add_argument("--format", choices=_FORMATS, default="text")
    sub.set_defaults(func=_cmd_finite)

    sub = subs.add_parser("sweep", help="CSV sweep over one parameter")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--vary", help="q, p<i>, r<i>, or n")
    sub.add_argument("--from", dest="range_from")
    sub.add_argument("--to", dest="range_to")
    sub.add_argument("--steps")
    sub.add_argument("--m-vec", help="dyadic block profile for n sweeps, e.g. 3,2")
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("verify", help="randomized cross-validation")
    _add_common(sub, spec_opts=False)
    sub.add_argument("--samples", default="100")
    sub.add_argument("--seed", default="0")
    sub.add_argument("--identity-points", default="2")
    sub.add_argument("--format", choices=_FORMATS, default="text")
    sub.set_defaults(func=_cmd_verify)
    parser.commands = subs.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at the null device so that the flush at interpreter
        # exit cannot raise again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return 4


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed as `_parser().parse_args` parses it, in one pass.

    argparse hands every token after the command name to that command's
    parser, so an argv that starts with a command is read by that parser
    alone.  Tokens it does not know are refused by the program's parser,
    with the line `parse_args` prints.  Any other argv (empty, help, or an
    unknown word) goes to the program's parser.
    """
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse(argv)
            if args.config is not None:
                # The file's arguments go before the command line's, whose
                # flags then win; its own --config is parsed but not followed.
                args = _parse([argv[0], *_config_args(args.config), *argv[1:]])
        except SystemExit as exc:
            return 0 if exc.code == 0 else 4
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # `str` refuses integers longer than the interpreter's digit limit;
        # such an exact value is refused rather than printed.
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"error: an exact result has more than {sys.get_int_max_str_digits()} digits",
            file=sys.stderr,
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
