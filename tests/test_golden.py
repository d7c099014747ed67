"""Byte-for-byte pins of CLI stdout.

Each case runs ``orthoentropy.cli.main`` in-process and compares its exit
code with the pinned one and stdout with ``tests/golden/<name>.out``.  The
files were written by an earlier version of the package; a change that
alters any printed bit fails here.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file whose bytes it changed, the number of changed
lines and the largest absolute change among their numeric cells.
"""

import re
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from orthoentropy.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

JACOBI = ["--alpha=0.3", "--beta=-0.4"]
SCAN = ["scan", "--x-grid=-0.9:0.9:0.15", "--n-schedule", "5,40,300"] + JACOBI
DOUBLING = ["--n-schedule", "10,20,40,80,160,320,640,1280"]

# name -> (argv, exit code)
CASES = {
    "scan_csv": (SCAN, 0),
    "scan_json": (SCAN + ["--format", "json"], 0),
    "entropy_angle": (["entropy", "--alpha=0", "--beta=0", "--angle", "1/3"] + DOUBLING, 0),
    "entropy_theta": (["entropy", "--theta", "1.0"] + JACOBI + DOUBLING, 0),
    # non-constant h at n >= 32, where the default Stieltjes rule has over 64 nodes
    "entropy_grid_logh": ([
        "entropy", "--x-grid=-0.8:0.8:0.2", "--n-schedule", "32,64",
        "--alpha=-0.3", "--beta=0.6", "--logh-coeffs=0.2,0.5,-0.3",
    ], 0),
    # a benchmark-sized Stieltjes rule: d_h = 27, so 1070 Gauss-Jacobi nodes
    "entropy_logh_n1000": ([
        "entropy", "--x-grid=-0.6:0.6:0.4", "--n", "1000",
        "--alpha=0.4", "--beta=0.9", "--logh-coeffs=0.1,0.5,-0.3,0.2",
    ], 0),
    "zeros": (["zeros", "--kind", "T", "--n-schedule", "3,8"], 0),
    "limit": (["limit", "--alpha=0", "--beta=0", "--logh-coeffs=0,1", "--theta", "1.0"], 0),
    # Chebyshev T at a rational angle: the closed-form cell is filled
    "limit_rational_json": (["limit", "--angle", "2/5", "--format", "json"], 0),
    # rational angle off Chebyshev T: the closed-form cell is empty
    "limit_rational_csv": (["limit", "--angle", "1/3"] + JACOBI, 0),
    "zeros_subsequence_json": ([
        "zeros", "--kind", "U", "--subsequence", "4", "--angle", "1/3",
        "--count", "5", "--format", "json",
    ], 0),
    # a point without an angle: d_infinity and gap are null
    "entropy_x_json": (["entropy", "--x", "0.2", "--n-schedule", "3,7", "--format", "json"], 0),
    # at n = 200 the universality tail (1.005e-2) exceeds its 1e-2 bound: exit 1
    "verify": (["verify", "--n", "200"], 1),
    "verify_json": (["verify", "--n", "200", "--format", "json"], 1),
}


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def changes(old: str, new: str) -> tuple[int, float]:
    """Changed lines, and the largest absolute change among numeric cells.

    Numbers are compared position by position on lines that hold the same
    count of them; other changed lines count only as changed.
    """
    changed, largest = 0, 0.0
    for a, b in zip_longest(old.splitlines(), new.splitlines(), fillvalue=""):
        if a == b:
            continue
        changed += 1
        olds, news = NUMBER.findall(a), NUMBER.findall(b)
        if len(olds) == len(news):
            largest = max([largest] + [abs(float(u) - float(v)) for u, v in zip(olds, news)])
    return changed, largest


def test_changes_counts_lines_and_numeric_cells():
    old = "n,x,shannon\n5,0.25,1.5\n40,0.25,2.0\n"
    new = "n,x,shannon\n5,0.25,1.5000000000000002\n40,0.25,1.9999999999999998\n"
    count, largest = changes(old, new)
    assert count == 2
    assert largest == abs(2.0 - 1.9999999999999998)
    assert changes(old, old) == (0, 0.0)
    assert changes(old, old + "extra\n") == (1, 0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    assert main(list(argv)) == expected_code
    out = capsys.readouterr().out
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert out == expected


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, expected_code) in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        path = GOLDEN_DIR / f"{name}.out"
        text = buffer.getvalue()
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if old != text:
            path.write_text(text, encoding="utf-8")
            count, largest = changes(old, text)
            print(f"{path.name}: {count} lines changed, largest numeric change {largest:.3g}")
