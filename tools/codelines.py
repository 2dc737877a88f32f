"""Code lines of the package: lines that hold code once comments and docstrings go.

Each module under `src/widthcalc` is tokenized.  Comments, blank lines and
docstrings hold no code; a docstring is a string statement on its own, which
is how a module, class or function docstring is written.  Every other token
counts each line it spans, so a multi-line string in an expression counts all
of its lines.  Prints one `<count> <module>` line per module and then
`<count> total`.

    python3 tools/codelines.py              # the package of this tree
    python3 tools/codelines.py PATH ...     # the given files or directories
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NO_CODE = {tokenize.COMMENT, tokenize.NL}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in _NO_CODE
    ]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and (k == 0 or tokens[k - 1].type in _LAYOUT)
            and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue  # a string statement on its own: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(paths) -> list[tuple[int, str]]:
    """(code lines, name) of each Python file in `paths`, files of a
    directory in name order."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return [(code_lines(f.read_text(encoding="utf-8")), f.name) for f in files]


def main(argv=None, stream=sys.stdout) -> int:
    """Print the counts of the paths in `argv`; return their total."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[ROOT / "src" / "widthcalc"])
    counts = count(parser.parse_args(argv).paths)
    for n, name in counts:
        print(n, name, file=stream)
    total = sum(n for n, _ in counts)
    print(total, "total", file=stream)
    return total


if __name__ == "__main__":
    main()
