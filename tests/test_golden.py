"""Golden stdout bytes of the command line.

Each argv below is run through `widthcalc.cli.main`; its exit code and the
sha256 of its stdout are pinned.  The list covers every consumer of the
piece families: `exponent` (objective pieces, their order, the witness and
the active pieces) at d = 2, 4, 8 and 16 on both sides of q = 2, `finite`
on each dominance branch and on threshold exponents (in text too, with a
value in exponent notation and a radius whose denominator stays one
unfactored base), `sweep --vary n`
(dyadic blocks through the intersection terms) and `verify` (the block
rates φ/ψ against the oracle).  A changed digest is a changed output:
update one only together with the behaviour change that explains it.
"""

import hashlib

import pytest

from widthcalc.cli import main
from widthcalc.oracle import GRID_ENV

D16_HIGH = (
    "--r", "5/4,5/4,7/4,2,3/2,11/4,13/4,13/4,3/2,5/4,7/2,3/2,9/4,7/4,3/4,2",
    "--p", "3/2,4,3/2,39/4,7/4,19/2,3,7/2,15/4,7/4,6,7,5/4,5/4,21/4,5/2",
    "--q", "5",
)
D16_LOW = (
    "--r", "2,9/4,2,3,13/4,3/2,11/4,5/2,5/2,11/4,7/4,3/4,15/4,11/4,3/4,1",
    "--p", "11/8,3/2,5/4,5/4,13/8,5,3/2,3/2,5/4,9/8,11/8,3/2,13/8,13/8,11/8,11/8",
    "--q", "7/4",
)


def _exponent(*spec):
    return ("exponent", *spec, "--format", "json")


def _finite(N, n, q, balls, fmt="json"):
    return ("finite", "--N", N, "--n", n, "--q", q, "--balls", balls, "--format", fmt)


# The 25- and 27-digit primes of test_values.py: a radius 1/(P·Q) whose
# denominator the bounded factoring keeps as one base.
BIG_PQ = 4000000000000000000000027 * 900000000000000000000000089


ARGV = [
    ("exp-d2-low", _exponent("--r", "1,1", "--p", "3,3", "--q", "2")),
    ("exp-d2-flat", _exponent("--r", "2,2", "--p", "3,3/2", "--q", "2")),
    ("exp-d2-noncompact", _exponent("--r", "1/4,1", "--p", "9/8,2", "--q", "2")),
    ("exp-d2-high", _exponent("--r", "2,1", "--p", "8,3/2", "--q", "4")),
    ("exp-d4-high", _exponent("--r", "1,2,3/2,1", "--p", "3,2,5,3/2", "--q", "3")),
    ("exp-d4-low", _exponent("--r", "2,1,1,3/2", "--p", "3/2,4/3,3,5/4", "--q", "3/2")),
    ("exp-d8-high", _exponent(
        "--r", "1,3/2,2,1/2,5/4,3,7/4,1",
        "--p", "7,5/2,3/2,9,5,2,4/3,11/4", "--q", "5")),
    ("exp-d8-low", _exponent(
        "--r", "3/2,1,2,5/4,1,7/4,5/2,1",
        "--p", "5/4,7/4,3,6/5,2,7/4,4/3,9/8", "--q", "7/4")),
    ("exp-d16-high", _exponent(*D16_HIGH)),
    ("exp-d16-low", _exponent(*D16_LOW)),
    ("finite-small", _finite("4096", "512", "4", "inf:1/64,3/2:1/64")),
    ("finite-large", _finite("4096", "512", "4", "inf:1/64,3:1/4")),
    ("finite-mid", _finite("4096", "512", "4", "inf:1/64,3:1/64")),
    ("finite-cross-lambda", _finite("4096", "512", "4", "inf:1/64,7/2:1/16")),
    ("finite-cross-mu", _finite("4096", "512", "4", "inf:1/64,3/2:1/16")),
    ("finite-low-small", _finite("16", "4", "2", "1:1/4,inf:1")),
    ("finite-low-large", _finite("16", "4", "2", "inf:1/64,1:1")),
    ("finite-low-cross-lambda", _finite("1024", "8", "2", "inf:1/4,1:1")),
    ("finite-high-thresholds", _finite("4096", "512", "4", "2:1/8,4:1/4,inf:1/64,3/2:1/4,3:1/2")),
    ("finite-low-threshold", _finite("256", "16", "3/2", "3/2:1/4,inf:1/8,1:1,2:1/2")),
    ("finite-text-mid", _finite("4096", "512", "4", "inf:1/64,3:1/64", "text")),
    ("finite-text-low-cross-lambda", _finite("1024", "8", "2", "inf:1/4,1:1", "text")),
    ("finite-exponent-notation", _finite("4096", "512", "4", "inf:1/10000000000,3:1/640000000000")),
    ("finite-radius-pq", _finite("4096", "512", "4", f"inf:1,3:1/{BIG_PQ}")),
    ("sweep-n-high", (
        "sweep", "--r", "1,1,2", "--p", "3,3/2,5", "--q", "4", "--vary", "n",
        "--m-vec", "3,2,1", "--from", "8", "--to", "32", "--steps", "7")),
    ("sweep-n-low", (
        "sweep", "--r", "1,2,1", "--p", "3,3/2,4/3", "--q", "2", "--vary", "n",
        "--m-vec", "3,2,1", "--from", "0", "--to", "32", "--steps", "5")),
    ("verify", ("verify", "--samples", "60", "--seed", "42", "--identity-points", "20")),
]

GOLDEN = {
    "exp-d2-low": (0, "dba2ecb68c3b94afc35cd6b59dd9d5441b95ce4673c8706cbf2c4d9794389521"),
    "exp-d2-flat": (3, "24de9300ec993ff9c6ac2b187031b9bc63435d792fa468b23bf98a9409542ddd"),
    "exp-d2-noncompact": (2, "f1cd53d1546735d9318a4cfa568f0430fc9032639d7514b0063b2c1e95a6035c"),
    "exp-d2-high": (0, "25fa4a4708ac3cb99221ade34119f8b724782a3f171126f3e6aca833fe616f87"),
    "exp-d4-high": (0, "cbdc7e350e206d577e0417e86d8202b4dff6ece9eca33482037d69909b0ec30a"),
    "exp-d4-low": (0, "27098dfaafe4e3f8aa9b6016f0f32e3160866a6eac839d09c849a75aaa77a705"),
    "exp-d8-high": (3, "a76ed9d9dcadf50e59f9a3612a8f64fcd69b694d15cf5832060edaee07926865"),
    "exp-d8-low": (3, "55d9a76af4ba4211bf924cbe844c14925e67147a5b116b0e814eb65e09ae3955"),
    "exp-d16-high": (2, "277b9ba745ea0558efbcff70eb185127ba1cafdd621b2558ec0aec23fcfa3ffd"),
    "exp-d16-low": (3, "4a8bd7d5ff615e4c3a3f928b69e21df4e59524b0f9ec4b91ede683ccced9dd6c"),
    "finite-small": (0, "b336333f19ce9371e3b178deea99899810519fa06790aa338a8fb524d1e47a7d"),
    "finite-large": (0, "5f3058a8aafb9b91d2563f1f9c23477f4bcc3f7e85c9e160bbe1b007e9cc4cde"),
    "finite-mid": (0, "cd1cf20b5434bfa6453423c4d5fa12192fa7efbe190f682dd489d062b5c5b92a"),
    "finite-cross-lambda": (0, "f8d583253f6d82d611ea7acdd1408e918b521cfa7742ceb7bf52e0c2edf7fbff"),
    "finite-cross-mu": (0, "00bc53800fa6f490fb20ab61ef492bf51147336dce37a31b099805768749c2f0"),
    "finite-low-small": (0, "764197d0fbc5b346d40b61995d5e2d71ecbbf63c01c8ba91d8fa211ede77f7bc"),
    "finite-low-large": (0, "34d9919414d7038dd9c908b25e4637541f8c1debddaadb872d4406278d65e8bf"),
    "finite-low-cross-lambda": (0, "1be532905b451fbbc4c234c81b9af9ca4027ba4301b831e9d59c28c43d655325"),
    "finite-high-thresholds": (0, "3d540a524f74dbd6aa4c19955e3205de8e65a9c54c69945842a7769778753307"),
    "finite-low-threshold": (0, "44b886c29b219b61f5f4dd4a910adb90598ab5298709503504088aa1a529e7b2"),
    "finite-text-mid": (0, "ddc9fcaf9fcca7ef243714e5ed0f510a8ca986adf1d115b1c0ae9fe9956f848e"),
    "finite-text-low-cross-lambda": (0, "68d427f84008a873de64839a9af09013d5280bc022a8a83b041b5a2b1fcfe02d"),
    "finite-exponent-notation": (0, "8d6145e14dfaac16e824421f9e7705aea57517d1e0a03ee6651944188290ad31"),
    "finite-radius-pq": (0, "6d148b7f252519bde43940bb6f3d3fe9e993c41ac697395319fe230c3b340218"),
    "sweep-n-high": (0, "b06aba07c853fdda9e78712f9f9c2886632f1037ac4d6ee218cba56ce65076fd"),
    "sweep-n-low": (0, "b97c5ba2c325c9ac96bfb5a626865d84e14510ef0e86c86a51d171a89076c9fb"),
    "verify": (0, "2f39bfaf93c00ad8400283ab096e20c35f439adcdd63670b99e0f177b5175c1e"),
}


@pytest.mark.parametrize("argv", [a for _, a in ARGV], ids=[n for n, _ in ARGV])
def test_cli_stdout_bytes_are_pinned(argv, capsys, monkeypatch, request):
    monkeypatch.delenv(GRID_ENV, raising=False)
    code, digest = GOLDEN[request.node.callspec.id]
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
