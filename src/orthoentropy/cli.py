"""Command-line front end.

Subcommands: entropy, limit, zeros, verify, scan.  Data commands emit CSV
(default) or JSON with a fixed field order and fixed 17-significant-digit
float formatting, so identical configurations produce byte-identical
output.

The command name is dispatched once, in ``build_config``: it checks the
arguments and returns the command's runner with exactly that command's
validated inputs bound, and ``main`` calls it.  Every row format lives
here: the row records, whose field names are the CSV header and the JSON
keys, and ``_emit_rows``, which writes them.  Each cell of a row is
computed once, by the module that owns the value.

Exit codes: 0 ok, 1 verification failure, 2 configuration error, 3
numerical failure.  The code follows from the exception type alone: a
ValueError (ConfigError is one) raised while ``build_config`` turns the
arguments into objects exits 2, and so does a ConfigError raised while a
command runs (an ``--out`` path, or a stdout whose reader has gone); a
NumericError raised while a command runs exits 3.  Each prints one line
on stderr.  Nothing else is caught, so any other exception is a bug and
ends in a traceback.  A command writes its ``--out`` file only after all
its rows are computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter

import numpy as np

from .asymptotics import (
    Angle,
    IrrationalAngle,
    RationalAngle,
    chebyshev_divergence_limit,
    limit_divergence,
    phase_average,
    zero_subsequence,
)
from .checks import CHECKS, verify_scope
from .entropy import (
    chebyshev_distribution_entropy,
    christoffel_entropy_grid,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from .errors import ConfigError, NumericError
from .orthopoly import WeightSpec, chebyshev_zero, weight_recurrence

_LOG2 = math.log(2.0)
_KIND_BY_FLAG = {"T": "first", "U": "second"}
_SIZE_MAX = np.iinfo(np.intp).max  # the largest size numpy can index


def _add_weight_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="exponent of (1-x)")
    parser.add_argument("--beta", type=float, default=None, help="exponent of (1+x)")
    parser.add_argument(
        "--logh-coeffs",
        default=None,
        help="comma-separated Chebyshev coefficients of log h, e.g. '0,1'",
    )
    parser.add_argument("--weight", default=None, help="path to a weight JSON file")


def _add_angle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--angle", default=None, help="rational angle theta/pi as 's/k'")
    parser.add_argument("--theta", type=float, default=None, help="angle in radians, declared irrational over pi")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoentropy",
        description=(
            "Discrete entropy and Kullback-Leibler divergence of "
            "Christoffel-normalized distributions for generalized Jacobi weights"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy/divergence rows at a point or angle")
    _add_weight_args(p)
    _add_angle_args(p)
    p.add_argument("--x", type=float, default=None, help="evaluation point in (-1, 1)")
    p.add_argument("--x-grid", default=None, help="grid 'a:b:step' of points in (-1, 1)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-schedule", default=None, help="comma-separated increasing sizes")
    _add_output_args(p)

    p = sub.add_parser("scan", help="entropy/divergence sweep over an x grid")
    _add_weight_args(p)
    p.add_argument("--x-grid", required=True, help="grid 'a:b:step' of points in (-1, 1)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-schedule", default=None, help="comma-separated increasing sizes")
    _add_output_args(p)

    p = sub.add_parser("limit", help="limiting divergence for a declared angle")
    _add_weight_args(p)
    _add_angle_args(p)
    _add_output_args(p)

    p = sub.add_parser("zeros", help="closed-form zero entropies vs direct summation")
    p.add_argument("--kind", required=True, choices=("T", "U"), help="Chebyshev kind")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-schedule", default=None, help="comma-separated increasing sizes")
    p.add_argument("--subsequence", type=int, choices=(1, 2, 3, 4), default=None,
                   help="emit gap rows along a zero-tracking family instead")
    p.add_argument("--count", type=int, default=None, help="items in subsequence mode (default 20)")
    _add_angle_args(p)
    _add_output_args(p)

    p = sub.add_parser("verify", help="run the built-in identity and limit checks")
    p.add_argument("--n", type=int, default=4000, help="degree for the kernel-limit checks")
    _add_output_args(p)

    return parser


def _parse_logh(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --logh-coeffs value: {exc}") from exc


def _resolve_weight(args: argparse.Namespace) -> WeightSpec:
    alpha, beta, logh = None, None, None
    if args.weight is not None:
        try:
            with open(args.weight, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read weight file {args.weight}: {exc}") from exc
        spec = WeightSpec.from_dict(data)
        alpha, beta, logh = spec.alpha, spec.beta, spec.logh_cheb
        inline = [
            name
            for name, value in (
                ("--alpha", args.alpha),
                ("--beta", args.beta),
                ("--logh-coeffs", args.logh_coeffs),
            )
            if value is not None
        ]
        if inline:
            print(
                f"warning: {', '.join(inline)} override values from {args.weight}",
                file=sys.stderr,
            )
    if args.alpha is not None:
        alpha = args.alpha
    if args.beta is not None:
        beta = args.beta
    if args.logh_coeffs is not None:
        logh = _parse_logh(args.logh_coeffs)
    return WeightSpec(
        alpha if alpha is not None else -0.5,
        beta if beta is not None else -0.5,
        logh if logh is not None else (),
    )


def _resolve_angle(args: argparse.Namespace) -> Angle | None:
    angle_text, theta = args.angle, args.theta
    if angle_text is not None and theta is not None:
        raise ConfigError("give either --angle or --theta, not both")
    if angle_text is not None:
        parts = angle_text.split("/")
        if len(parts) != 2:
            raise ConfigError(f"--angle must look like 's/k', got {angle_text!r}")
        try:
            s, k = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad --angle value {angle_text!r}: {exc}") from exc
        return RationalAngle(s, k)
    if theta is not None:
        return IrrationalAngle(theta)
    return None


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-grid must look like 'a:b:step', got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad --x-grid value {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise ConfigError(f"--x-grid needs finite a, b and step, got {text!r}")
    if step <= 0.0 or b < a:
        raise ConfigError("--x-grid needs a <= b and step > 0")
    last = (b - a) / step + 1e-12
    if not last < _SIZE_MAX:
        raise ConfigError(f"--x-grid {text!r} has more points than numpy can index")
    return tuple(a + i * step for i in range(int(last) + 1))


def _resolve_ns(args: argparse.Namespace) -> tuple[int, ...]:
    n, schedule = args.n, args.n_schedule
    if n is not None and schedule is not None:
        raise ConfigError("give either --n or --n-schedule, not both")
    if schedule is not None:
        try:
            ns = tuple(int(p) for p in schedule.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --n-schedule value: {exc}") from exc
        if not ns or not all(1 <= v <= _SIZE_MAX for v in ns):
            raise ConfigError(f"--n-schedule entries must be between 1 and {_SIZE_MAX}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("--n-schedule must be strictly increasing")
        return ns
    if n is not None:
        if not 1 <= n <= _SIZE_MAX:
            raise ConfigError(f"--n must be between 1 and {_SIZE_MAX}")
        return (n,)
    return ()


def _check_xs(xs) -> tuple[float, ...]:
    for x in xs:
        if not -1.0 < x < 1.0:
            raise ConfigError(f"evaluation points must lie in (-1, 1), got {x}")
    return tuple(xs)


def build_config(args: argparse.Namespace) -> Callable[[], int | None]:
    """Check the arguments and bind them to their command's runner.

    Calling the result runs the command: ``verify`` returns its exit code,
    the data commands return None.
    """
    command = args.command
    if command == "verify":
        if not 64 <= args.n <= _SIZE_MAX:
            raise ConfigError(f"--n must be between 64 and {_SIZE_MAX} for the kernel-limit checks")
        return partial(run_verify, args.n, args.fmt, args.out)

    emit = partial(_emit_rows, args.fmt, args.out)

    if command == "zeros":
        kind = _KIND_BY_FLAG[args.kind]
        if args.subsequence is not None:
            if args.n is not None or args.n_schedule is not None:
                raise ConfigError("--n and --n-schedule do not apply with --subsequence")
            angle = _resolve_angle(args)
            if angle is None:
                raise ConfigError("subsequence mode requires --angle or --theta")
            count = 20 if args.count is None else args.count
            if not 1 <= count <= _SIZE_MAX:
                raise ConfigError(f"--count must be between 1 and {_SIZE_MAX}")
            # raises ValueError when the family does not fit the angle
            items = zero_subsequence(args.subsequence, angle, count)
            return partial(run_zero_subsequence, kind, angle, items, emit)
        if (args.angle, args.theta, args.count) != (None, None, None):
            raise ConfigError("--angle, --theta and --count need --subsequence")
        ns = _resolve_ns(args)
        if not ns:
            raise ConfigError("zeros requires --n, --n-schedule, or --subsequence")
        return partial(run_zeros, kind, ns, emit)

    weight = _resolve_weight(args)

    if command == "limit":
        angle = _resolve_angle(args)
        if angle is None:
            raise ConfigError("limit requires --angle or --theta")
        return partial(run_limit, weight, angle, emit)

    # entropy and scan
    ns = _resolve_ns(args)
    if not ns:
        raise ConfigError(f"{command} requires --n or --n-schedule")
    if command == "scan":
        xs = _check_xs(_parse_grid(args.x_grid))
        return partial(run_entropy, weight, None, xs, ns, emit)
    angle = _resolve_angle(args)
    sources = [
        args.x is not None,
        args.x_grid is not None,
        angle is not None,
    ]
    if sum(sources) != 1:
        raise ConfigError(
            "entropy requires exactly one of --x, --x-grid, --angle, --theta"
        )
    if angle is not None:
        xs = _check_xs((math.cos(angle.theta),))
    elif args.x is not None:
        xs = _check_xs((args.x,))
    else:
        xs = _check_xs(_parse_grid(args.x_grid))
    return partial(run_entropy, weight, angle, xs, ns, emit)


def _csv_cell(value) -> str:
    """A float with 17 significant digits (round-trips any double), None empty, else str."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


@dataclass(frozen=True)
class EntropyReport:
    """One ``entropy``/``scan`` output row: (n, x, entropy, divergence, limit, gap).

    n is checked with ValueError; the entropy and the divergence are
    computed values, whose ranges are checked with NumericError.
    """

    n: int
    x: float
    shannon: float
    divergence: float
    d_infinity: float | None = None
    gap: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not -1e-12 <= self.shannon <= math.log(self.n) + 1e-12:
            raise NumericError("entropy outside [0, log n]")
        if self.divergence < -1e-12:
            raise NumericError("divergence must be nonnegative")


@dataclass(frozen=True)
class LimitRow:
    """One ``limit`` output row; s and k are None for an irrational angle."""

    theta: float
    angle_type: str
    s: int | None
    k: int | None
    phase_average: float
    d_infinity: float
    cheb_t_closed_form: float | None


@dataclass(frozen=True)
class ZeroRow:
    """One ``zeros`` output row: closed form against direct summation at a zero."""

    n: int
    j: int
    zero: float
    closed_form: float
    direct: float
    diff: float


def _write(out: str | None, text: str) -> None:
    """Write text to stdout, or to the file ``out`` (ConfigError if it cannot be written)."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # the interpreter flushes stdout again at exit: send that nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {'stdout' if out is None else out}: {exc.strerror}") from exc


def _emit_rows(fmt: str, out: str | None, rows: list) -> None:
    """Write dataclass rows; their field names are the CSV header and the JSON keys."""
    names = [f.name for f in fields(rows[0])]
    cells = attrgetter(*names)
    if fmt == "json":
        records = [dict(zip(names, cells(row))) for row in rows]
        _write(out, json.dumps(records, indent=2) + "\n")
    else:
        lines = [",".join(names)] + [",".join(map(_csv_cell, cells(row))) for row in rows]
        _write(out, "\n".join(lines) + "\n")


def run_entropy(weight: WeightSpec, angle: Angle | None, xs: tuple[float, ...],
                ns: tuple[int, ...], emit: Callable[[list], None]) -> None:
    rec = weight_recurrence(weight, max(ns))
    d_inf = None if angle is None else limit_divergence(weight, angle)
    reports = []
    grid = christoffel_entropy_grid(rec, xs, ns)
    for n, shannons in zip(ns, grid.tolist()):
        for x, shannon in zip(xs, shannons):
            divergence = math.log(n) - shannon
            gap = None if d_inf is None else divergence - d_inf
            reports.append(EntropyReport(n, x, shannon, divergence, d_inf, gap))
    emit(reports)


def run_limit(weight: WeightSpec, angle: Angle, emit: Callable[[list], None]) -> None:
    average = phase_average(weight, angle)
    if isinstance(angle, RationalAngle):
        is_cheb_t = weight.alpha == -0.5 and weight.beta == -0.5 and weight.trivial_h
        closed = chebyshev_divergence_limit(angle.k) if is_cheb_t else None
        angle_type, s, k = "rational", angle.s, angle.k
    else:
        angle_type, s, k, closed = "irrational", None, None, None
    # limit_divergence's formula, without a second phase average
    emit([LimitRow(angle.theta, angle_type, s, k, average, _LOG2 + 2.0 * average, closed)])


def _zero_row(kind: str, n: int, j: int, direct: float) -> ZeroRow:
    """The closed-form entropy at the j-th zero of degree n against ``direct``."""
    closed_fn = zero_entropy_first_kind if kind == "first" else zero_entropy_second_kind
    closed = closed_fn(n, j)
    return ZeroRow(n, j, chebyshev_zero(kind, n, j), closed, direct, closed - direct)


def run_zeros(kind: str, ns: tuple[int, ...], emit: Callable[[list], None]) -> None:
    emit([
        _zero_row(kind, n, j, zero_entropy_direct(kind, n, j))
        for n in ns
        for j in range(1, n + 1)
    ])


def run_zero_subsequence(kind: str, angle: Angle, items: list,
                         emit: Callable[[list], None]) -> None:
    # direct is the entropy at the declared angle, so diff is the family's gap
    emit([
        _zero_row(kind, item.n, item.j, chebyshev_distribution_entropy(kind, item.n, angle.theta))
        for item in items
    ])


def run_verify(universality_n: int, fmt: str, out: str | None) -> int:
    lines = []
    results = []
    all_pass = True
    scope = verify_scope(universality_n)
    for check in CHECKS:
        for name, error, tol in check(scope):
            ok = error < tol
            all_pass = all_pass and ok
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status} {name:30s} error={error: .3e} tol={tol:.3e}")
            results.append({"name": name, "error": error, "tol": tol, "passed": ok})
    summary = f"verify: {sum(r['passed'] for r in results)}/{len(results)} checks passed"
    if fmt == "json":
        _write(out, json.dumps({"checks": results, "passed": all_pass}, indent=2) + "\n")
    else:
        _write(out, "\n".join(lines + [summary]) + "\n")
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = build_config(args)
    except ValueError as exc:  # ConfigError is one
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return job() or 0
    except ConfigError as exc:  # an --out path or a stdout that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
