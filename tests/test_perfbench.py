"""The benchmark's tracer still finds and wraps what it names.

`perfbench/spans.py` wraps package functions and methods by module and
name, and reads counts off their arguments and results.  A rename or a new
return shape would make a layer read zero in the benchmark; here it fails a
test first.
"""

import contextlib
import importlib.util
import io
import sys
from fractions import Fraction as F
from pathlib import Path

import widthcalc.cli as cli
import widthcalc.closedform  # noqa: F401  (the tracer wraps only loaded modules)
import widthcalc.exponent  # noqa: F401
import widthcalc.finitedim  # noqa: F401
import widthcalc.oracle
from widthcalc.params import ProblemSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# One call per layer: a certificate, the LP on both sides of q = 2, the face
# LP of a flat optimum (the only route to `simplex.probe`), and the oracle's
# sampler and checks.  No command runs the lattice bracket, so it is reached
# by one direct call on the q > 2 spec.
ARGVS = (
    ["finite", "--N", "4096", "--n", "512", "--q", "4", "--balls", "inf:1/64,3:1/4"],
    ["exponent", "--r", "1,2", "--p", "3,3/2", "--q", "5"],
    ["exponent", "--r", "2,2", "--p", "3,3/2", "--q", "2"],
    ["verify", "--samples", "2"],
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """(owner, name, value) for every package-module binding and every class
    attribute that the tracer may replace."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "widthcalc"]
    owners += [getattr(sys.modules[m], c) for m, c, _, _ in spans.METHODS]
    return [(owner, k, v) for owner in owners for k, v in vars(owner).items()]


def test_every_traced_span_is_reached_and_uninstall_restores_the_package():
    spans = _load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.op(cli.main, argv) in (0, 3), argv
        spec = ProblemSpec(r=(F(1), F(2)), p=(F(3), F(3, 2)), q=F(5))
        assert tracer.op(widthcalc.oracle.grid_minimize, spec, 64).contains(F(2, 3))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    names = {name for _, _, name, _ in spans.FUNCTIONS} | {m[3] for m in spans.METHODS}
    names = (names - {spans.SOLVE}) | {spans.OP, spans.EPIGRAPH, spans.PROBE}
    assert {name for name in names if tracer.calls[name] == 0} == set()
    assert tracer.ops == len(ARGVS) + 1
    assert metrics["finitedim.checks_per_certificate"][0] > 0
    assert all(vars(owner)[key] is value for owner, key, value in before)
