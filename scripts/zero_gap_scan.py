#!/usr/bin/env python3
"""Gap between closed-form zero entropies and the entropy at the angle.

Walks the zero-tracking families along a rational angle and prints

    kind,family,n,j,gap

For the second kind (any k) and the first kind with even k the gaps
collapse to zero; for the first kind with odd k they stay below the
strictly negative level 2*correction(1/(2k)) - correction(1/k), printed
as a trailing comment line.
"""

import argparse
import sys

from orthoentropy import (
    RationalAngle,
    entropy_correction,
    zero_entropy_gaps,
    zero_subsequence,
)
from orthoentropy.cli import csv_line, format_float


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="items per family")
    args = parser.parse_args(argv)

    print("kind,family,n,j,gap")
    scans = [
        ("second", 4, RationalAngle(1, 3)),
        ("second", 4, RationalAngle(1, 2)),
        ("first", 2, RationalAngle(1, 4)),
        ("first", 4, RationalAngle(1, 3)),
        ("first", 4, RationalAngle(1, 5)),
    ]
    for kind, family, angle in scans:
        items = zero_subsequence(family, angle, args.count)
        gaps = zero_entropy_gaps(kind, angle, items)
        for item, gap in zip(items, gaps):
            print(csv_line([kind, family, item.n, item.j, gap]))
        if kind == "first" and angle.k % 2 == 1:
            bound = 2.0 * entropy_correction(0.5 / angle.k) - entropy_correction(1.0 / angle.k)
            print(f"# first kind, k={angle.k}: gap ceiling "
                  f"2*correction(1/(2k)) - correction(1/k) = {format_float(bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
