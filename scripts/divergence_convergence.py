#!/usr/bin/env python3
"""Convergence of the Kullback-Leibler divergence toward its limit.

Sweeps the three named weights over a handful of declared angles and a
doubling schedule of distribution sizes, printing one CSV row per point:

    weight,angle,n,divergence,limit,gap

Rational angles approach a value strictly different from the irrational
plateau 1 - log(2); the gap column shows the finite-n residual.  Each
weight costs one recurrence pass over all its angles to the largest size.
"""

import argparse
import math
import sys

from orthoentropy import (
    IrrationalAngle,
    RationalAngle,
    WeightSpec,
    christoffel_entropy_grid,
    limit_divergence,
    weight_recurrence,
)
from orthoentropy.cli import csv_line

WEIGHTS = {
    "chebyshev_t": WeightSpec.chebyshev_t(),
    "chebyshev_u": WeightSpec.chebyshev_u(),
    "legendre": WeightSpec.legendre(),
}

ANGLES = {
    "1/2": RationalAngle(1, 2),
    "1/3": RationalAngle(1, 3),
    "2/5": RationalAngle(2, 5),
    "1rad": IrrationalAngle(1.0),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12800,
                        help="largest distribution size (doubling from 100)")
    args = parser.parse_args(argv)

    schedule = []
    n = 100
    while n <= args.n_max:
        schedule.append(n)
        n *= 2

    print("weight,angle,n,divergence,limit,gap")
    for wname, weight in WEIGHTS.items():
        rec = weight_recurrence(weight, schedule[-1] + 1)
        xs = [math.cos(angle.theta) for angle in ANGLES.values()]
        table = christoffel_entropy_grid(rec, xs, schedule)
        for (aname, angle), entropies in zip(ANGLES.items(), table.T.tolist()):
            limit = limit_divergence(weight, angle)
            for size, shannon in zip(schedule, entropies):
                divergence = math.log(size) - shannon
                print(csv_line([wname, aname, size, divergence, limit, divergence - limit]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
