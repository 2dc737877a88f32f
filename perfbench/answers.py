"""The parts of a CLI answer that the benchmark checks against its references.

Each extractor turns (exit code, captured stdout) into a small JSON-able
value; an op is correct when the digest of its argv and that value equals
the stored reference.
Fields that later work may legitimately change are left out on purpose:
the argmin witness of `exponent` (a non-unique optimum may get another
witness) and the bytes of the `verify` report (it may gain counts).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re


def exponent_answer(rc: int, out: str):
    data = json.loads(out)
    return {
        "rc": rc,
        "theta": data["theta"]["ratio"],
        "case": data["case"],
        "unique": data["unique"],
        "compact": data["compact"],
    }


def sweep_answer(rc: int, out: str):
    rows = list(csv.reader(io.StringIO(out)))[1:]
    return {
        "rc": rc,
        "rows": [
            f"{row[2]}/{row[3]}|{row[5]}|{row[6]}|{row[7]}" if row[2] else f"|{row[8]}"
            for row in rows
        ],
    }


_RECORD_RE = re.compile(r" theta=(\S+) lp=(\S+) ")


def verify_answer(rc: int, out: str):
    lines = out.splitlines()
    return {
        "rc": rc,
        "pass": bool(lines) and lines[-1].startswith("result: PASS"),
        "records": [list(m.groups()) for m in map(_RECORD_RE.search, lines) if m],
    }


def finite_answer(rc: int, out: str):
    data = json.loads(out)
    value = data["value"]
    cert = data["certificate"]
    return {
        "rc": rc,
        "value": value["ratio"] if value["ratio"] is not None else value["form"],
        "branch": data["branch"],
        "case": data["case"],
        "cert_ok": None if cert is None else cert["ok"],
    }


EXTRACTORS = {
    "exponent": exponent_answer,
    "sweep": sweep_answer,
    "verify": verify_answer,
    "finite": finite_answer,
}


def capture(main, argv: list[str]) -> tuple[int, str]:
    """Run `main(argv)` with stdout and stderr captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def answer(argv: list[str], rc: int, out: str):
    """The checked fields of one op's answer; raises if the output is malformed."""
    return EXTRACTORS[argv[0]](rc, out)


def digest(argv: list[str], fields) -> str:
    """Reference key of one op: its argv and checked answer fields together."""
    blob = json.dumps([argv, fields], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
