"""Golden stdout bytes of the command line.

Each argv below is run through `widthcalc.cli.main`; its exit code and the
sha256 of its stdout are pinned.  The list covers every consumer of the
piece families: `exponent` (objective pieces, their order, the witness and
the active pieces) at d = 2, 4, 8 and 16 on both sides of q = 2, `finite`
on each dominance branch and on threshold exponents (in text too, with a
value in exponent notation and a radius whose denominator stays one
unfactored base), `sweep --vary n`
(dyadic blocks through the intersection terms), `sweep` along q, p1 and r2
(the closed forms and the LP per row) and `verify` (the block rates φ/ψ
against the oracle).  Each report layout is pinned in text and in JSON:
`regime` on a covered spec, a tie, a non-compact spec and d = 16, and in
JSON on one spec per case label, ties and each uncovered kind included;
`exponent` in text and with `--check`; `finite` on one ball at q = 2
and q = inf; and `verify`.  A changed digest is a changed output: update
one only together with the behaviour change that explains it.
"""

import contextlib
import hashlib
import io

import pytest

from _reference import catalog_argvs
from widthcalc import cli
from widthcalc.cli import main

D16_HIGH = (
    "--r", "5/4,5/4,7/4,2,3/2,11/4,13/4,13/4,3/2,5/4,7/2,3/2,9/4,7/4,3/4,2",
    "--p", "3/2,4,3/2,39/4,7/4,19/2,3,7/2,15/4,7/4,6,7,5/4,5/4,21/4,5/2",
    "--q", "5",
)
D2_LOW = ("--r", "1,1", "--p", "3,3", "--q", "2")
D2_FLAT = ("--r", "2,2", "--p", "3,3/2", "--q", "2")
D2_NONCOMPACT = ("--r", "1/4,1", "--p", "9/8,2", "--q", "2")
D2_HIGH = ("--r", "2,1", "--p", "8,3/2", "--q", "4")
D16_LOW = (
    "--r", "2,9/4,2,3,13/4,3/2,11/4,5/2,5/2,11/4,7/4,3/4,15/4,11/4,3/4,1",
    "--p", "11/8,3/2,5/4,5/4,13/8,5,3/2,3/2,5/4,9/8,11/8,3/2,13/8,13/8,11/8,11/8",
    "--q", "7/4",
)


def _exponent(*spec):
    return ("exponent", *spec, "--format", "json")


def _regime(*spec, fmt="text"):
    return ("regime", *spec, "--format", fmt)


def _finite(N, n, q, balls, fmt="json"):
    return ("finite", "--N", N, "--n", n, "--q", q, "--balls", balls, "--format", fmt)


# The 25- and 27-digit primes of test_values.py: a radius 1/(P·Q) whose
# denominator the bounded factoring keeps as one base.
BIG_PQ = 4000000000000000000000027 * 900000000000000000000000089


ARGV = [
    ("exp-d2-low", _exponent(*D2_LOW)),
    ("exp-d2-flat", _exponent(*D2_FLAT)),
    ("exp-d2-noncompact", _exponent(*D2_NONCOMPACT)),
    ("exp-d2-high", _exponent(*D2_HIGH)),
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
    ("verify-json", (
        "verify", "--samples", "60", "--seed", "42", "--identity-points", "20", "--format", "json")),
    ("exp-text-d2-high", ("exponent", *D2_HIGH)),
    ("exp-text-d2-flat", ("exponent", *D2_FLAT)),
    ("exp-check-text-d2-low", ("exponent", *D2_LOW, "--check")),
    ("exp-check-json-d2-low", ("exponent", *D2_LOW, "--check", "--format", "json")),
    ("regime-text-d2-low", _regime(*D2_LOW)),
    ("regime-text-d2-flat", _regime(*D2_FLAT)),
    ("regime-text-d2-noncompact", _regime(*D2_NONCOMPACT)),
    ("regime-text-d16-high", _regime(*D16_HIGH)),
    ("regime-json-d2-low", _regime(*D2_LOW, fmt="json")),
    ("regime-json-d2-flat", _regime(*D2_FLAT, fmt="json")),
    ("regime-json-d2-noncompact", _regime(*D2_NONCOMPACT, fmt="json")),
    ("regime-json-d16-high", _regime(*D16_HIGH, fmt="json")),
    ("finite-one-ball-q2-text", _finite("64", "8", "2", "inf:1/2", "text")),
    ("finite-one-ball-q2-json", _finite("64", "8", "2", "inf:1/2")),
    ("finite-one-ball-qinf-text", _finite("64", "8", "inf", "inf:1/2", "text")),
    ("finite-one-ball-qinf-json", _finite("64", "8", "inf", "inf:1/2")),
    # One spec per case label, so that every candidate θ of the closed forms
    # is pinned, with ties in the T1.3 and T4 rows and each uncovered kind.
    ("regime-json-t1-1", _regime("--r", "1,3", "--p", "6,59/18", "--q", "5/2", fmt="json")),
    ("regime-json-t1-2a", _regime("--r", "4,1", "--p", "6/5,8/7", "--q", "4/3", fmt="json")),
    ("regime-json-t1-2b", _regime("--r", "23/9,9/4", "--p", "6/5,2", "--q", "3/2", fmt="json")),
    ("regime-json-t1-3a", _regime("--r", "7/3,2", "--p", "6/5,4/3", "--q", "3", fmt="json")),
    ("regime-json-t1-3b", _regime("--r", "4,1", "--p", "32/7,29/4", "--q", "5", fmt="json")),
    ("regime-json-t1-3c", _regime("--r", "3/2,3", "--p", "6/5,8", "--q", "15/2", fmt="json")),
    ("regime-json-t4-1", _regime("--r", "1,27/92", "--p", "23/12,7/6", "--q", "5/4", fmt="json")),
    ("regime-json-t4-2a", _regime("--r", "1,3/25", "--p", "10,4", "--q", "11/2", fmt="json")),
    ("regime-json-t4-2b", _regime("--r", "2,97/236", "--p", "59/7,3/2", "--q", "3", fmt="json")),
    ("regime-json-t3-noncompact", _regime("--r", "1/3,5/9", "--p", "8/7,3", "--q", "4", fmt="json")),
    ("regime-json-tie-t1-3", _regime("--r", "1,1", "--p", "2,2", "--q", "5", fmt="json")),
    ("regime-json-tie-t4-1", _regime("--r", "2/3,1/3", "--p", "5/2,5/4", "--q", "3/2", fmt="json")),
    ("regime-json-tie-t4-2a", _regime("--r", "1/6,2", "--p", "5/2,5", "--q", "3", fmt="json")),
    ("regime-json-unbounded", _regime("--r", "1,1/4", "--p", "8,2", "--q", "6", fmt="json")),
    ("regime-json-margin-zero", _regime("--r", "1/4,1", "--p", "3,2", "--q", "6", fmt="json")),
    ("regime-json-uncovered-d3", _regime(
        "--r", "3,1/2,1", "--p", "11/2,2,3/2", "--q", "4", fmt="json")),
    # A sweep axis in q (across q = 2), in p1 (bounds reversed, running into
    # invalid rows) and in r2 (across the planar small-smoothness line).
    ("sweep-q-across-2", (
        "sweep", "--r", "1,1", "--p", "5/2,3/2", "--q", "2", "--vary", "q",
        "--from", "5/4", "--to", "6", "--steps", "20")),
    ("sweep-p1-reversed", (
        "sweep", "--r", "1,1/2", "--p", "3,3/2", "--q", "5/2", "--vary", "p1",
        "--from", "6", "--to", "1/2", "--steps", "12")),
    ("sweep-r2", (
        "sweep", "--r", "1,1", "--p", "4,4/3", "--q", "3", "--vary", "r2",
        "--from", "1/8", "--to", "3", "--steps", "9")),
]

GOLDEN = {
    "exp-d2-low": (0, "e9702a79c9aaa7b504ae6ec5b82b2319859f0ad128c5622e1309631447120205"),
    "exp-d2-flat": (3, "b34ac32606b5eefda44ccab3d3f675eef008b3d1b7913d999acacd70b809ec8f"),
    "exp-d2-noncompact": (2, "4f9a5f3ad8b383a1d3290c5b49023b1b3a6b3966a99f2f3c885a67cf013b7e5d"),
    "exp-d2-high": (0, "41a3e26e0dae0787a27672fb6d0b8dc99baed790070d553a986f995c26a744ed"),
    "exp-d4-high": (0, "ba03a6c0f82a58468fc38b16246f93f4c860272879830e0a3cd317805f7e73e3"),
    "exp-d4-low": (0, "d58ad7a1a8f84c5bb45724a94114863202b281622d4df857ce425c1a57789739"),
    "exp-d8-high": (3, "e87e3b5ac0e941ffe96840e94c964b3fe7ba874e2f87cc9e56404fa0616df18c"),
    "exp-d8-low": (3, "3c674eba77ffd72e92b1a6cb6db25d223685fc349db673f16dbf9cdb75027be9"),
    "exp-d16-high": (2, "00ddb2a3daa4cd2adcaa95206ef5fcbf7e9f9085db80d881f937aeb60537646f"),
    "exp-d16-low": (3, "129818d00c81040353bd06125ec63186b62d139f97c2dc52de5bdd973a268ae8"),
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
    "verify": (0, "f56614839554957d454f44dbda5b0fa1e422c93a0fca5b842ceac2db1e09fb1f"),
    "verify-json": (0, "b10f7cd401815d54893707d79932ee3bb60f78b433dc50058179b7d6c14cc356"),
    "exp-text-d2-high": (0, "3e32d8ea290dbd277f250fb37e951384ce44e6afe45742e031c2c9a96117d8fe"),
    "exp-text-d2-flat": (3, "53b30ce257d6366dc0239640aaa501482cd6f1b826bfaed0f5110b5bdebc6567"),
    "exp-check-text-d2-low": (0, "24c6a1b26fb67ef449089863e3cb926cea35aab4f5486f9d4a4aa867a9438079"),
    "exp-check-json-d2-low": (0, "850b8b7375077768bf0af4a9b70d57da2d64d180deaedb2b016c2444b6f9b1d1"),
    "regime-text-d2-low": (0, "015d0fc6681b52b87bf3893640a2efc85be1478f31a7e0c0641ba4f51934cbfa"),
    "regime-text-d2-flat": (3, "109f41209a14af910e8a28240d858f8944a65304c777cf10d8351ae12d17a26d"),
    "regime-text-d2-noncompact": (2, "a1fdd180f017e27504198b6addd502dcfa975a95a7c62b0edef76c4807328323"),
    "regime-text-d16-high": (2, "bbe31d05e4da7d2434eef15a78828d9cf9d0757bdf52b704ab7e5889876a5904"),
    "regime-json-d2-low": (0, "55220ed77fe7e7933c45dc160670b8bd026769dbbdb73f6c3e97d62a6c2814c2"),
    "regime-json-d2-flat": (3, "a87d92ae216bd8bd0aef34a2822f96e6935878a77b55d0f2c52eb5c9021abfc9"),
    "regime-json-d2-noncompact": (2, "a963e630a5017c227afb0f0b15f97ee3b397ef06f5b2d744c1f2cbbc0bcd033b"),
    "regime-json-d16-high": (2, "f3e30d46b7a4bd8aaa7a9225ed7b8821b90f7b28f3b567813b802f8a8df320b6"),
    "finite-one-ball-q2-text": (0, "fb8222c92db7643a6030d750c631d41dd1f90e4ca73eef9a06650625ca070a11"),
    "finite-one-ball-q2-json": (0, "02b2ca1acad483f9081a3d4ff0d29d02635f914f82d8b1176c24cb430f7cf1b1"),
    "finite-one-ball-qinf-text": (0, "00915c06e893dcf29d0a85b165c2fd63addc2543aa7e89305734d9d076976a4b"),
    "finite-one-ball-qinf-json": (0, "195467ffc36770aee5dde8cb58f6c049e5fcf399799de51e606e933a94d9edc6"),
    "regime-json-t1-1": (0, "a5ba838d1cf6700cc245e23bee1938dcedb1f51020723f36d57e69b3bbdc1fb3"),
    "regime-json-t1-2a": (0, "803707f566afacf02922de7804729c4ce2237ec12e10d2acea22ee6f732716c1"),
    "regime-json-t1-2b": (0, "fed68de178a745c3a42d9d124a782df1b164d9f0888499897a17231de29ed983"),
    "regime-json-t1-3a": (0, "34dfe64b80998412a56c5178072fb9dbb9105781c5cbbb5996629eff8b1d987b"),
    "regime-json-t1-3b": (0, "48ef940ae7cb264821252f10e0b55f1a4ae03c5bc4199f18e300c425dc43749a"),
    "regime-json-t1-3c": (0, "b4cc194c0d9faf8f5d50a31c1b65bd1f1a8816e76b977414d9a7b53aacaf917f"),
    "regime-json-t4-1": (0, "2fd227d1e4f9f98603ced7b7f0553a52e40118cfbd06b3de25dbac577bdd9f48"),
    "regime-json-t4-2a": (0, "e60855005f5380160fb84987c88ce9d5d7e5f4301e35c33705bcd6584d31c672"),
    "regime-json-t4-2b": (0, "5a577450781297a5a9e14ed2b36733514ce19a5d6b3e2f711817e4c59482eadd"),
    "regime-json-t3-noncompact": (2, "f39e415e4804330bbce7075adc6867191ac10529702d3b7c8ab20a183540265a"),
    "regime-json-tie-t1-3": (3, "f9bcb357c8f7e8001d77954b118b68547a6f39161dcc77a37fc6d80e228891f4"),
    "regime-json-tie-t4-1": (3, "95a257ab7d0085cef476042b52fc46bafb5f228763e631df000ac6875761d69e"),
    "regime-json-tie-t4-2a": (3, "bde710d2bbaa697752284e01e011986c023fe74ca390fb311ab09ca656fa674e"),
    "regime-json-unbounded": (2, "1ae4427b7a22156517b158cba6248f80060f3b3bd8c05b004ffc14b45533fdc7"),
    "regime-json-margin-zero": (2, "e6d7ce70cffdd790c71873739a785299a892c7e3682ba6455658eb09708f7986"),
    "regime-json-uncovered-d3": (3, "c6e26bb552da2aa9ab3fe28ab4fcda908379268197bba12983a4874a24f6ca61"),
    "sweep-q-across-2": (0, "8a2ce90deffd368c1728dd7aa4a46dc130906eadf8f2b19c91aa5eed58309b99"),
    "sweep-p1-reversed": (0, "1f9e8f16b0e000f514bfb3219cd8ac54bb93b8b287d9fa7c06dcb00b9ff6c09b"),
    "sweep-r2": (0, "c7e3fb7c0aa94c14791b4a65dcb5e511921237860496b6e611a23ac6ac42e93c"),
}


@pytest.mark.parametrize("argv", [a for _, a in ARGV], ids=[n for n, _ in ARGV])
def test_cli_stdout_bytes_are_pinned(argv, capsys, request):
    code, digest = GOLDEN[request.node.callspec.id]
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# How the command line is parsed: exit code, and the sha256 of stdout and of
# stderr, for argv that argparse refuses or answers with help.  Usage lines
# wrap at the terminal width, so COLUMNS is pinned.
SPEC = ("--r", "1,2", "--p", "3,3/2", "--q", "2")
PARSE_ARGV = {
    "unknown-option": ("exponent", *SPEC, "--bogus", "1"),
    "missing-value": ("exponent", "--r"),
    "bad-choice": ("exponent", *SPEC, "--format", "xml"),
    "verify-unknown-option": ("verify", "--json"),
    "sweep-extra-word": (
        "sweep", *SPEC, "--vary", "q", "--from", "3/2", "--to", "3", "--steps", "3", "extra"),
    "no-argv": (),
    "unknown-command": ("expo", *SPEC),
    "help": ("-h",),
    "exponent-help": ("exponent", "-h"),
}

# The sha256 of no output at all.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

PARSE_GOLDEN = {
    "unknown-option": (4, EMPTY,
        "b2af495e9843fe40527cff81a0ae0f67b48e512025035dce6bb71b8f95bbf8e6"),
    "missing-value": (4, EMPTY,
        "e18fecb78343ac67eec357c1201e12acfd15084511289913b910d28665ad5119"),
    "bad-choice": (4, EMPTY,
        "f3c0efd7c63695bf239711874f72ba4f96ebb42d3f66c16b63fd200e16123a46"),
    "verify-unknown-option": (4, EMPTY,
        "fc403d6c68abe9d89842fec1471f6a30e53cb5e642866f7c0eb7637932088e16"),
    "sweep-extra-word": (4, EMPTY,
        "f78609f7fe3539ff106981494470041fd2e00becfc4bba24cf73189d74f791d2"),
    "no-argv": (4, EMPTY,
        "c361747438bc711ad26fa9bfc5a982e0b20d253f2bd9353f1da8a5f1fd2dd220"),
    "unknown-command": (4, EMPTY,
        "d948427cd63ec338f6d9b969496fc5a0a0591a0743c81ce7f847609ce20453f2"),
    "help": (0, "51fac9604cf209ad7e5267fbad63ced874052e59dad88872c7b00c7ebf5a843e",
        EMPTY),
    "exponent-help": (0, "99297a689721815a4b7da562cee4a9a0af246e31ecf716ecca56be52c74e7150",
        EMPTY),
}


@pytest.mark.parametrize("name", PARSE_ARGV)
def test_cli_parse_outcomes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(PARSE_ARGV[name]))
    captured = capsys.readouterr()
    digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (captured.out, captured.err))
    assert (code, *digests) == PARSE_GOLDEN[name]


def _parsed(parse, argv):
    """The namespace, or the exit code of a refusal or of help, with the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_one_pass_parse_equals_the_program_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [list(a) for _, a in ARGV] + [list(a) for a in PARSE_ARGV.values()]
    argvs += catalog_argvs()
    assert len(argvs) > 7000
    for argv in argvs:
        assert _parsed(cli._parse, argv) == _parsed(cli._parser().parse_args, argv), argv
