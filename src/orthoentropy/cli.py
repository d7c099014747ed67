"""Command-line front end.

Subcommands: entropy, limit, zeros, verify, scan.  Data commands emit CSV
(default) or JSON with a fixed field order and fixed 17-significant-digit
float formatting, so identical configurations produce byte-identical
output.  Exit codes: 0 ok, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter

from .asymptotics import (
    Angle,
    IrrationalAngle,
    RationalAngle,
    chebyshev_divergence_limit,
    limit_divergence,
    phase_average,
    zero_entropy_gaps,
    zero_subsequence,
)
from .checks import CHECKS, verify_scope
from .entropy import (
    EntropyReport,
    christoffel_entropies,
    csv_line,
    zero_entropy_direct,
    zero_entropy_first_kind,
    zero_entropy_second_kind,
)
from .errors import ConfigError, NumericError
from .orthopoly import WeightSpec, chebyshev_zero, weight_recurrence

_LOG2 = math.log(2.0)
_KIND_BY_FLAG = {"T": "first", "U": "second"}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation."""

    command: str
    weight: WeightSpec
    angle: Angle | None = None
    xs: tuple[float, ...] = ()
    ns: tuple[int, ...] = ()
    kind: str | None = None
    family: int | None = None
    count: int | None = None
    fmt: str = "csv"
    tol: float | None = None
    out: str | None = None
    universality_n: int = 4000


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
    p.add_argument("--count", type=int, default=20, help="items in subsequence mode")
    _add_angle_args(p)
    _add_output_args(p)

    p = sub.add_parser("verify", help="run the built-in identity and limit checks")
    p.add_argument("--tol", type=float, default=None,
                   help="override every check threshold with this value")
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
    if getattr(args, "weight", None) is not None:
        try:
            with open(args.weight, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read weight file {args.weight}: {exc}") from exc
        try:
            spec = WeightSpec.from_dict(data)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
    if getattr(args, "alpha", None) is not None:
        alpha = args.alpha
    if getattr(args, "beta", None) is not None:
        beta = args.beta
    if getattr(args, "logh_coeffs", None) is not None:
        logh = _parse_logh(args.logh_coeffs)
    if alpha is None and beta is None and logh is None:
        return WeightSpec.chebyshev_t()
    try:
        return WeightSpec(
            alpha if alpha is not None else -0.5,
            beta if beta is not None else -0.5,
            logh if logh is not None else (),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_angle(args: argparse.Namespace) -> Angle | None:
    angle_text = getattr(args, "angle", None)
    theta = getattr(args, "theta", None)
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
        try:
            return RationalAngle(s, k)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if theta is not None:
        try:
            return IrrationalAngle(theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return None


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-grid must look like 'a:b:step', got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad --x-grid value {text!r}: {exc}") from exc
    if step <= 0.0 or b < a:
        raise ConfigError("--x-grid needs a <= b and step > 0")
    count = int(math.floor((b - a) / step + 1e-12)) + 1
    return tuple(a + i * step for i in range(count))


def _resolve_ns(args: argparse.Namespace) -> tuple[int, ...]:
    n = getattr(args, "n", None)
    schedule = getattr(args, "n_schedule", None)
    if n is not None and schedule is not None:
        raise ConfigError("give either --n or --n-schedule, not both")
    if schedule is not None:
        try:
            ns = tuple(int(p) for p in schedule.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --n-schedule value: {exc}") from exc
        if not ns or any(v < 1 for v in ns):
            raise ConfigError("--n-schedule entries must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("--n-schedule must be strictly increasing")
        return ns
    if n is not None:
        if n < 1:
            raise ConfigError("--n must be >= 1")
        return (n,)
    return ()


def _check_xs(xs) -> tuple[float, ...]:
    for x in xs:
        if not -1.0 < x < 1.0:
            raise ConfigError(f"evaluation points must lie in (-1, 1), got {x}")
    return tuple(xs)


def build_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "verify":
        if args.tol is not None and not args.tol > 0.0:
            raise ConfigError("--tol must be positive")
        if args.n < 64:
            raise ConfigError("--n must be >= 64 for the kernel-limit checks")
        return RunConfig(
            command=command,
            weight=WeightSpec.chebyshev_t(),
            fmt=args.fmt,
            tol=args.tol,
            out=args.out,
            universality_n=args.n,
        )

    weight = _resolve_weight(args)

    if command == "limit":
        angle = _resolve_angle(args)
        if angle is None:
            raise ConfigError("limit requires --angle or --theta")
        return RunConfig(command, weight, angle=angle, fmt=args.fmt, out=args.out)

    if command in ("entropy", "scan"):
        ns = _resolve_ns(args)
        if not ns:
            raise ConfigError(f"{command} requires --n or --n-schedule")
        if command == "scan":
            xs = _check_xs(_parse_grid(args.x_grid))
            return RunConfig(command, weight, xs=xs, ns=ns, fmt=args.fmt, out=args.out)
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
            xs = (math.cos(angle.theta),)
        elif args.x is not None:
            xs = _check_xs((args.x,))
        else:
            xs = _check_xs(_parse_grid(args.x_grid))
        return RunConfig(command, weight, angle=angle, xs=xs, ns=ns,
                         fmt=args.fmt, out=args.out)

    if command == "zeros":
        kind = _KIND_BY_FLAG[args.kind]
        if args.subsequence is not None:
            angle = _resolve_angle(args)
            if angle is None:
                raise ConfigError("subsequence mode requires --angle or --theta")
            if args.count < 1:
                raise ConfigError("--count must be >= 1")
            try:  # one item checks the family against the angle
                zero_subsequence(args.subsequence, angle, 1)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            return RunConfig(command, weight, angle=angle, kind=kind,
                             family=args.subsequence, count=args.count,
                             fmt=args.fmt, out=args.out)
        ns = _resolve_ns(args)
        if not ns:
            raise ConfigError("zeros requires --n, --n-schedule, or --subsequence")
        return RunConfig(command, weight, ns=ns, kind=kind, fmt=args.fmt, out=args.out)

    raise ConfigError(f"unknown command {command!r}")


def _emit(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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


def _emit_rows(config: RunConfig, rows: list) -> None:
    """Write dataclass rows; their field names are the CSV header and the JSON keys."""
    names = [f.name for f in fields(rows[0])]
    cells = attrgetter(*names)
    if config.fmt == "json":
        records = [dict(zip(names, cells(row))) for row in rows]
        _emit(config, json.dumps(records, indent=2) + "\n")
    else:
        lines = [",".join(names)] + [csv_line(cells(row)) for row in rows]
        _emit(config, "\n".join(lines) + "\n")


def run_entropy(config: RunConfig) -> None:
    rec = weight_recurrence(config.weight, max(config.ns))
    d_inf = None
    if config.angle is not None:
        d_inf = limit_divergence(config.weight, config.angle)
    ns = sorted(config.ns)
    reports = []
    for x in sorted(config.xs):
        for n, shannon in zip(ns, christoffel_entropies(rec, x, ns)):
            divergence = math.log(n) - shannon
            gap = None if d_inf is None else divergence - d_inf
            reports.append(EntropyReport(n, x, shannon, divergence, d_inf, gap))
    reports.sort(key=lambda r: (r.n, r.x))
    _emit_rows(config, reports)


def run_limit(config: RunConfig) -> None:
    angle = config.angle
    weight = config.weight
    if isinstance(angle, RationalAngle):
        average = phase_average(weight, angle)
        is_cheb_t = weight.alpha == -0.5 and weight.beta == -0.5 and weight.trivial_h
        closed = (
            chebyshev_divergence_limit(angle.k) if (is_cheb_t and angle.k >= 2) else None
        )
        # limit_divergence's rational form, without a second phase average
        row = LimitRow(angle.theta, "rational", angle.s, angle.k,
                       average, _LOG2 + 2.0 * average, closed)
    else:
        row = LimitRow(angle.theta, "irrational", None, None, 0.5 - _LOG2,
                       limit_divergence(weight, angle), None)
    _emit_rows(config, [row])


def run_zeros(config: RunConfig) -> None:
    kind = config.kind
    closed_fn = zero_entropy_first_kind if kind == "first" else zero_entropy_second_kind
    if config.family is not None:
        items = zero_subsequence(config.family, config.angle, config.count)
        gaps = zero_entropy_gaps(kind, config.angle, items)
        cases = []
        for item, gap in zip(items, gaps):
            closed = closed_fn(item.n, item.j)
            cases.append((item.n, item.j, closed, closed - gap))
    else:
        cases = [
            (n, j, closed_fn(n, j), zero_entropy_direct(kind, n, j))
            for n in sorted(config.ns)
            for j in range(1, n + 1)
        ]
    rows = [
        ZeroRow(n, j, chebyshev_zero(kind, n, j), closed, direct, closed - direct)
        for n, j, closed, direct in cases
    ]
    _emit_rows(config, rows)


def run_verify(config: RunConfig) -> int:
    lines = []
    results = []
    all_pass = True
    scope = verify_scope(config.universality_n)
    for check in CHECKS:
        for name, error, threshold in check(scope):
            tol = config.tol if config.tol is not None else threshold
            ok = error < tol
            all_pass = all_pass and ok
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status} {name:30s} error={error: .3e} tol={tol:.3e}")
            results.append({"name": name, "error": error, "tol": tol, "passed": ok})
    summary = f"verify: {sum(r['passed'] for r in results)}/{len(results)} checks passed"
    if config.fmt == "json":
        _emit(config, json.dumps({"checks": results, "passed": all_pass}, indent=2) + "\n")
    else:
        _emit(config, "\n".join(lines + [summary]) + "\n")
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if config.command == "verify":
            return run_verify(config)
        if config.command in ("entropy", "scan"):
            run_entropy(config)
        elif config.command == "limit":
            run_limit(config)
        elif config.command == "zeros":
            run_zeros(config)
        return 0
    except (NumericError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
