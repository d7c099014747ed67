"""Seeded operation generators for the four benchmark workloads.

An operation is one ``orthoentropy`` CLI invocation.  Each generator maps
(seed, index) to an ``Op``: the argv the program sees plus the parameters
the reference checks need.  Inputs come from ``random.Random`` seeded with
a string, which is stable across interpreters and hash seeds.  Every index
yields fresh parameters, so no two timed operations in a run repeat.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DOUBLING_SCHEDULE = tuple(100 * 2 ** i for i in range(11))  # 100 .. 102400
GRID_SCHEDULE = (250, 1000, 4000)
GRID_STEP = 0.01
GRID_POINTS = 190
STIELTJES_N = 1000
STIELTJES_POINTS = 5
LOW_N = 6
ZEROS_SCHEDULE_SUM = 350
SUBSEQUENCE_COUNT = 40
CLOSED_FORMS_CYCLE = 20


@dataclass(frozen=True)
class Weight:
    alpha: float
    beta: float
    logh: tuple[float, ...] = ()

    def argv(self) -> list[str]:
        # '=' keeps argparse from reading a leading '-' as an option
        out = [f"--alpha={self.alpha!r}", f"--beta={self.beta!r}"]
        if self.logh:
            out.append("--logh-coeffs=" + ",".join(repr(c) for c in self.logh))
        return out

    @property
    def name(self) -> str:
        if self.logh:
            return "generalized"
        return {(-0.5, -0.5): "chebyshev_t", (0.5, 0.5): "chebyshev_u"}.get(
            (self.alpha, self.beta), "jacobi"
        )


CHEB_T = Weight(-0.5, -0.5)
CHEB_U = Weight(0.5, 0.5)
LEGENDRE = Weight(0.0, 0.0)


@dataclass(frozen=True)
class Angle:
    """theta = pi*s/k when k is set, else the declared-irrational theta."""

    s: int = 0
    k: int = 0
    theta_value: float = 0.0

    @property
    def rational(self) -> bool:
        return self.k > 0

    @property
    def theta(self) -> float:
        return math.pi * self.s / self.k if self.rational else self.theta_value

    def argv(self) -> list[str]:
        if self.rational:
            return ["--angle", f"{self.s}/{self.k}"]
        return ["--theta", repr(self.theta_value)]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    weight: Weight | None = None
    angle: Angle | None = None
    xs: tuple[float, ...] = ()
    ns: tuple[int, ...] = ()
    family: int = 0
    extra: dict = field(default_factory=dict, compare=False)


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def _coef(r: random.Random, lo: float, hi: float) -> float:
    return round(r.uniform(lo, hi), 4)


def _rational(r: random.Random, k_lo: int, k_hi: int, even: bool = False) -> Angle:
    k = r.randrange(k_lo + (k_lo % 2 if even else 0), k_hi + 1, 2 if even else 1)
    s = r.choice([s for s in range(1, k) if math.gcd(s, k) == 1])
    return Angle(s=s, k=k)


def _irrational(r: random.Random) -> Angle:
    return Angle(theta_value=round(r.uniform(0.15, math.pi - 0.15), 12))


def _grid(a: float, step: float, count: int) -> tuple[str, tuple[float, ...]]:
    """Grid flag covering exactly ``count`` points: b sits half a step past the last."""
    b = round(a + (count - 0.5) * step, 6)
    return f"--x-grid={a!r}:{b!r}:{step!r}", tuple(a + i * step for i in range(count))


def grid_scan(seed: int, tag: str) -> Op:
    r = _rng("grid_scan", seed, tag)
    weight = Weight(_coef(r, -0.9, 1.5), _coef(r, -0.9, 1.5))
    a = -round(0.945 + 0.004 * r.random(), 4)
    flag, xs = _grid(a, GRID_STEP, GRID_POINTS)
    schedule = ",".join(map(str, GRID_SCHEDULE))
    argv = ["scan", flag, "--n-schedule", schedule] + weight.argv()
    return Op("scan", tuple(argv), weight=weight, xs=xs, ns=GRID_SCHEDULE)


def deep_schedule(seed: int, tag: str, index: int) -> Op:
    r = _rng("deep_schedule", seed, tag)
    weight = (CHEB_T, CHEB_U, LEGENDRE, None)[index % 4] or Weight(
        _coef(r, -0.9, 1.5), _coef(r, -0.9, 1.5)
    )
    angle = _rational(r, 3, 40) if (index // 4) % 2 == 0 else _irrational(r)
    schedule = ",".join(map(str, DOUBLING_SCHEDULE))
    argv = ["entropy"] + angle.argv() + ["--n-schedule", schedule]
    if weight is not CHEB_T:
        argv += weight.argv()
    return Op("entropy_angle", tuple(argv), weight=weight, angle=angle,
              xs=(math.cos(angle.theta),), ns=DOUBLING_SCHEDULE)


def stieltjes_h(seed: int, tag: str) -> Op:
    r = _rng("stieltjes_h", seed, tag)
    logh = tuple(_coef(r, -1.0, 1.0) for _ in range(r.randint(3, 5)))
    weight = Weight(_coef(r, -0.6, 1.5), _coef(r, -0.6, 1.5), logh)
    step = round(0.35 + 0.02 * r.random(), 4)
    flag, xs = _grid(round(-0.8 + 0.2 * r.random(), 4), step, STIELTJES_POINTS)
    argv = ["entropy", flag, "--n", str(STIELTJES_N)] + weight.argv()
    low_argv = ["entropy", f"--x={xs[0]!r}", "--n", str(LOW_N)] + weight.argv()
    return Op("entropy_h", tuple(argv), weight=weight, xs=xs, ns=(STIELTJES_N,),
              extra={"low_argv": tuple(low_argv)})


def _zeros_schedule(r: random.Random) -> tuple[int, ...]:
    n1 = 40 + r.randint(0, 20)
    n2 = 100 + r.randint(0, 20)
    return (n1, n2, ZEROS_SCHEDULE_SUM - n1 - n2)


def _subsequence(r: random.Random, kind: str, family: int) -> Op:
    if family in (1, 3):
        angle = _irrational(r)
    else:
        angle = _rational(r, 2 if family == 2 else 3, 12, even=family == 2)
    argv = ["zeros", "--kind", kind, "--subsequence", str(family)] + angle.argv()
    argv += ["--count", str(SUBSEQUENCE_COUNT)]
    return Op("zeros_subsequence", tuple(argv), angle=angle, family=family,
              extra={"kind": kind, "count": SUBSEQUENCE_COUNT})


def _limit(r: random.Random, slot: int) -> Op:
    if slot % 3 == 0:
        weight = CHEB_T
    elif slot % 3 == 1:
        weight = Weight(_coef(r, -0.9, 1.5), _coef(r, -0.9, 1.5))
    else:
        logh = tuple(_coef(r, -1.0, 1.0) for _ in range(r.randint(2, 5)))
        weight = Weight(_coef(r, -0.9, 1.5), _coef(r, -0.9, 1.5), logh)
    angle = _rational(r, 2, 60) if slot % 4 else _irrational(r)
    argv = ["limit"] + angle.argv() + ([] if weight is CHEB_T else weight.argv())
    return Op("limit", tuple(argv), weight=weight, angle=angle)


def closed_forms(seed: int, tag: str, index: int) -> Op:
    """One cycle: verify, zeros over a schedule (T, U), zero-tracking
    families (T, U; the family rotates per cycle), then limits."""
    r = _rng("closed_forms", seed, tag)
    slot = index % CLOSED_FORMS_CYCLE
    if slot == 0:
        return Op("verify", ("verify", "--n", str(r.randint(3500, 4500))))
    if slot in (1, 2):
        kind = "T" if slot == 1 else "U"
        ns = _zeros_schedule(r)
        argv = ("zeros", "--kind", kind, "--n-schedule", ",".join(map(str, ns)))
        return Op("zeros_schedule", argv, ns=ns, extra={"kind": kind})
    if slot in (3, 4):
        family = 1 + (index // CLOSED_FORMS_CYCLE) % 4
        return _subsequence(r, "T" if slot == 3 else "U", family)
    return _limit(r, slot)


WORKLOADS = ("grid_scan", "deep_schedule", "stieltjes_h", "closed_forms")

# Calibration load (see speed.py) that resembles each workload's hot path.
CALIBRATION = {"grid_scan": "interp", "deep_schedule": "interp",
               "stieltjes_h": "gauss_rule", "closed_forms": "interp"}


def make_op(workload: str, seed: int, index: int, tag: str = "op") -> Op:
    """The index-th operation of ``workload``; ``tag`` separates untimed passes."""
    key = f"{tag}{index}"
    if workload == "grid_scan":
        return grid_scan(seed, key)
    if workload == "deep_schedule":
        return deep_schedule(seed, key, index)
    if workload == "stieltjes_h":
        return stieltjes_h(seed, key)
    if workload == "closed_forms":
        return closed_forms(seed, key, index)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_count(workload: str) -> int:
    """Operations in one untimed pass: one of every operation shape."""
    return {"grid_scan": 1, "deep_schedule": 4, "stieltjes_h": 1,
            "closed_forms": CLOSED_FORMS_CYCLE}[workload]
