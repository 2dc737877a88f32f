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
ratio.  A config file of key=value lines supplies defaults; explicit
flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

from . import closedform, oracle
from .exponent import build_objective, minimize, render_provenance
from .finitedim import (
    BallSpec,
    IntersectionSpec,
    classify_branch,
    dyadic_block_order,
    intersection_order,
    single_ball_order,
)
from .params import MAX_DIMENSION, ParameterError, ProblemSpec, RangeError
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


def _json_rational(x: Fraction) -> dict:
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": decimal_str(x)}


def _json_value(v: PowerProduct) -> dict:
    out: dict = {"decimal": v.decimal(12) if not v.is_zero else "0.0"}
    if v.is_zero:
        out["ratio"] = "0/1"
    elif v.is_rational:
        f = v.as_fraction()
        out["ratio"] = f"{f.numerator}/{f.denominator}"
    else:
        out["ratio"] = None
        out["form"] = str(v)
    return out


def _write_lines(lines: list[str]) -> None:
    """Write a whole text report at once, so a refusal leaves no partial output."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


# ---------------------------------------------------------------------------
# config files

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace, flag_keys: dict[str, bool]) -> None:
    """Fill unset options from the config file; explicit flags keep priority."""
    if not getattr(args, "config", None):
        return
    for key, value in _load_config(args.config).items():
        dest = key.replace("-", "_")
        if dest == "config" or dest not in flag_keys:
            raise ParameterError(f"unknown config key {key!r}")
        if getattr(args, dest) is not None:
            continue
        if flag_keys[dest]:  # boolean flag
            low = value.lower()
            if low in _TRUE:
                setattr(args, dest, True)
            elif low in _FALSE:
                setattr(args, dest, False)
            else:
                raise ParameterError(f"config key {key!r} expects a boolean, got {value!r}")
        else:
            setattr(args, dest, value)


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
    bracket = None
    grid_ok = True
    if args.grid_check:
        bracket = oracle.grid_minimize(spec)
        grid_ok = bracket.contains(result.theta)
    closed_ok = report.exponent is None or report.exponent == result.theta
    if (args.format or "text") == "json":
        payload = {
            "case": report.case,
            "theta": _json_rational(result.theta),
            "closed_form": _json_rational(report.exponent) if report.exponent is not None else None,
            "argmin_alpha": [str(a) for a in result.argmin_alpha],
            "argmin_s": str(result.argmin_s) if result.argmin_s is not None else None,
            "unique": result.unique,
            "active": [render_provenance(t) for t in result.active_pieces],
            "compact": report.compact,
            "tie": report.tie,
            "thetas": {k: _json_rational(v) for k, v in sorted(report.thetas.items())},
            "margin": _json_rational(spec.compact_margin()),
            "grid": None
            if bracket is None
            else {
                "grid": bracket.grid,
                "lower": _json_rational(bracket.lower),
                "best": _json_rational(bracket.best_value),
                "contains": grid_ok,
            },
            "agreement": closed_ok,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines = [
            f"case      {report.case}",
            f"theta     {result.theta} ({decimal_str(result.theta)})",
        ]
        if report.exponent is not None:
            lines.append(f"closed    {report.exponent} ({'match' if closed_ok else 'MISMATCH'})")
        lines.append(f"argmin    alpha={','.join(str(a) for a in result.argmin_alpha)}"
                     + (f" s={result.argmin_s}" if result.argmin_s is not None else ""))
        lines.append(f"unique    {str(result.unique).lower()}")
        lines.append(f"active    {', '.join(render_provenance(t) for t in result.active_pieces)}")
        lines.append(f"compact   {str(report.compact).lower()} (margin {spec.compact_margin()})")
        if bracket is not None:
            lines.append(
                f"grid      [{bracket.lower}, {bracket.best_value}] at G={bracket.grid} "
                f"({'contains theta' if grid_ok else 'VIOLATION'})"
            )
        _write_lines(lines)
    if not closed_ok or not grid_ok:
        return 1
    return _regime_exit(report)


def _cmd_regime(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    report = closedform.classify_regime(spec)
    if (args.format or "text") == "json":
        payload = {
            "case": report.case,
            "bounded": report.bounded,
            "compact": report.compact,
            "regularity": report.regularity,
            "tie": report.tie,
            "exponent": _json_rational(report.exponent) if report.exponent is not None else None,
            "thetas": {k: _json_rational(v) for k, v in sorted(report.thetas.items())},
            "margin": _json_rational(spec.compact_margin()),
            "regularity_sums": [str(m) for m in closedform.regularity_sums(spec)],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines = [
            f"case        {report.case}",
            f"bounded     {str(report.bounded).lower()}",
            f"compact     {str(report.compact).lower()}",
            f"regularity  {str(report.regularity).lower()}",
            f"margin      {spec.compact_margin()}",
        ]
        if report.exponent is not None:
            lines.append(f"exponent    {report.exponent} ({decimal_str(report.exponent)})")
        lines += [f"{name:11s} {report.thetas[name]}" for name in sorted(report.thetas)]
        if report.tie:
            lines.append("tie         true")
        _write_lines(lines)
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
    cert_ok = cert is None or cert.verify()
    if (args.format or "text") == "json":
        value = _json_value(order.value)
        payload = {
            "N": N,
            "n": n,
            "q": "inf" if is_inf(q) else str(q),
            "value": value,
            "branch": order.branch,
            "case": case,
            "certificate": None
            if cert is None
            else {
                "kind": cert.kind,
                "k": cert.k,
                "scale": _json_value(cert.scale),
                "certified_value": value
                if cert.certified_value == order.value
                else _json_value(cert.certified_value),
                "checks": len(cert.checked),
                "ok": cert_ok,
                "note": cert.note,
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        dec = order.value.decimal(12) if not order.value.is_zero else "0.0"
        lines = [f"value     {order.value} ({dec})", f"branch    {order.branch}"]
        if case is not None:
            lines.append(f"case      {case}")
        if cert is not None:
            lines.append(f"cert      {cert.kind} k={cert.k} scale={cert.scale} "
                         f"value={cert.certified_value} checks={len(cert.checked)} "
                         f"{'ok' if cert_ok else 'FAILED'}")
        _write_lines(lines)
    return 0 if cert_ok else 1


def _sweep_values(args: argparse.Namespace) -> list[Fraction]:
    _require(args, "vary", "range_from", "range_to", "steps")
    lo = parse_rational(args.range_from)
    hi = parse_rational(args.range_to)
    steps = parse_integer(args.steps, "--steps")
    if steps < 1:
        raise ParameterError(f"--steps must be ≥ 1, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


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
        return [vary, str(value), "", "", "", "", "", "", "invalid"]
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


def _sweep_row_n(spec: ProblemSpec | None, m_vec: tuple[int, ...], value: Fraction) -> list[str]:
    if not _is_block_rank(value):
        return ["n", str(value), "", "", "", "", "", "", "invalid"]
    try:
        order = dyadic_block_order(spec, m_vec, int(value))
    except (ParameterError, RangeError):
        return ["n", str(value), "", "", "", "", "", "", "invalid"]
    if order.value.is_zero:
        num, den, dec = "0", "1", "0.0"
    elif order.value.is_rational:
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
        # spec, unless |p| ≠ |r|, which no rank can mend.
        needs_spec = len(args.p.split(",")) != d or any(_is_block_rank(v) for v in values)
        spec = _build_spec(args) if needs_spec else None
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    samples = parse_integer(args.samples, "--samples") if args.samples is not None else 100
    seed = parse_integer(args.seed, "--seed") if args.seed is not None else 0
    if samples < 0:
        raise ParameterError(f"--samples must be ≥ 0, got {samples}")
    grid = oracle.default_grid(2) if args.grid is None else parse_integer(args.grid, "--grid")
    points = 2
    if args.identity_points is not None:
        points = parse_integer(args.identity_points, "--identity-points")
        if points < 0:
            raise ParameterError(f"--identity-points must be ≥ 0, got {points}")
    report = oracle.cross_validate(samples, seed, grid=grid, identity_points=points)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, *, spec_opts: bool) -> None:
    sub.add_argument("--config", default=None, help="key=value defaults file")
    if spec_opts:
        sub.add_argument("--r", default=None, help="smoothness orders, e.g. 1,1 or 3/2,2")
        sub.add_argument("--p", default=None, help="integrability exponents, e.g. 3,3/2")
        sub.add_argument("--q", default=None, help="target exponent, e.g. 2 or 7/3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthcalc",
        description="decay exponents and finite-dimensional width orders",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exponent", help="decay exponent of one spec")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--grid-check", dest="grid_check", action="store_const", const=True,
                     default=None, help="also bracket the minimum on a lattice")
    sub.add_argument("--format", choices=["text", "json"], default=None)
    sub.set_defaults(func=_cmd_exponent)

    sub = subs.add_parser("regime", help="regime classification report")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--format", choices=["text", "json"], default=None)
    sub.set_defaults(func=_cmd_regime)

    sub = subs.add_parser("finite", help="finite-dimensional width order")
    _add_common(sub, spec_opts=False)
    sub.add_argument("--N", default=None, help="ambient dimension")
    sub.add_argument("--n", default=None, help="approximation rank")
    sub.add_argument("--q", default=None, help="target norm exponent (inf allowed for one inf ball)")
    sub.add_argument("--balls", default=None, help="comma list of p:nu, e.g. inf:1/4,1:1")
    sub.add_argument("--format", choices=["text", "json"], default=None)
    sub.set_defaults(func=_cmd_finite)

    sub = subs.add_parser("sweep", help="CSV sweep over one parameter")
    _add_common(sub, spec_opts=True)
    sub.add_argument("--vary", default=None, help="q, p<i>, r<i>, or n")
    sub.add_argument("--from", dest="range_from", default=None)
    sub.add_argument("--to", dest="range_to", default=None)
    sub.add_argument("--steps", default=None)
    sub.add_argument("--m-vec", dest="m_vec", default=None,
                     help="dyadic block profile for n sweeps, e.g. 3,2")
    sub.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("verify", help="randomized cross-validation")
    _add_common(sub, spec_opts=False)
    sub.add_argument("--samples", default=None)
    sub.add_argument("--seed", default=None)
    sub.add_argument("--grid", default=None, help="lattice denominator for brackets")
    sub.add_argument("--identity-points", dest="identity_points", default=None)
    sub.add_argument("--json", action="store_const", const=True, default=None)
    sub.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 4
    flag_keys = {
        dest: isinstance(getattr(args, dest), (bool, type(None)))
        and dest in ("grid_check", "json")
        for dest in vars(args)
        if dest not in ("command", "func")
    }
    try:
        _merge_config(args, flag_keys)
        return args.func(args)
    except (ParameterError, RangeError) as exc:
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
