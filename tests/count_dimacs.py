"""Count a DIMACS file with the reference DPLL and print the count as `s mc N`.

    python3 tests/count_dimacs.py formula.cnf

A stand-in for an off-the-shelf projected model counter, for use as
`--backend 'external:python3 tests/count_dimacs.py {file}'`: the formula
then reaches the count through a temporary file, a process and the output
parser, as it does for a real counter. The projection is read from the
file's `c ind` or `c p show` lines. The `exactml` package must be
importable (installed, or `src` on PYTHONPATH); `reference_counters` is
found beside this file.
"""

import sys
from pathlib import Path

from exactml.cnf import parse_dimacs
from reference_counters import count_projected


def main(argv: list[str]) -> int:
    (path,) = argv
    result = count_projected(parse_dimacs(Path(path).read_text()))
    if result.count is None:
        print(f"decision budget exhausted: {result.stats}", file=sys.stderr)
        return 1
    print(f"s mc {result.count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
