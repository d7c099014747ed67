"""Independent references for checking benchmark outputs.

Nothing here imports the package under test: the Chebyshev rows are
checked against trigonometric sums, the Jacobi rows against a forward
recurrence written from the textbook coefficients, the non-constant-h
rows against a discretized Stieltjes procedure on a Gauss-Jacobi rule of
this module's own (itself checked against mpmath at low n), and the
limits against a direct phase average.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from workloads import LOW_N, Op

TOL = 1e-9
ZEROS_TOL = 1e-10
RULE_EXTRA = 50  # nodes beyond 2n in the reference Stieltjes rule
_LOG2 = math.log(2.0)

ENTROPY_HEADER = "n,x,shannon,divergence,d_infinity,gap"
ZEROS_HEADER = "n,j,zero,closed_form,direct,diff"
LIMIT_HEADER = "theta,angle_type,s,k,phase_average,d_infinity,cheb_t_closed_form"


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _xlogx(q: np.ndarray) -> np.ndarray:
    return q * np.log(np.where(q > 0.0, q, 1.0))


def _entropy(k_sum, s_sum):
    return np.log(k_sum) - s_sum / k_sum


def chebyshev_entropies(kind: str, thetas, ns) -> np.ndarray:
    """Entropy at x = cos(theta) for each theta (rows) and size n (columns).

    Cells are cos(m theta)^2 with the m = 0 cell halved for the first kind,
    sin((m+1) theta)^2 for the second kind, m = 0..n-1.
    """
    thetas = np.asarray(thetas, dtype=float)[:, None]
    m = np.arange(max(ns), dtype=float)[None, :]
    if kind == "T":
        rel = np.cos(m * thetas) ** 2
        rel[:, 0] = 0.5
    else:
        rel = np.sin((m + 1.0) * thetas) ** 2
    idx = np.asarray(ns) - 1
    k_sum = np.cumsum(rel, axis=1)[:, idx]
    s_sum = np.cumsum(_xlogx(rel), axis=1)[:, idx]
    return _entropy(k_sum, s_sum)


def _jacobi_block(alpha, beta, k0: int, k1: int):
    """Monic Jacobi a_k and sqrt(b_k) for k in [k0, k1), shape (k1-k0, B)."""
    k = np.arange(k0, k1, dtype=float)[:, None]
    ab = alpha + beta
    s = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (beta * beta - alpha * alpha) / (s * (s + 2.0))
        b = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
    if k0 == 0:
        a[0] = (beta - alpha) / (ab + 2.0)
        b[0] = 0.0  # multiplies p_{-1} = 0; the mass only scales the cells
        if k1 > 1:
            b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    return a, np.sqrt(b)


def jacobi_entropies(alphas, betas, xs, ns, block: int = 8192) -> np.ndarray:
    """Entropy for weights (1-x)^alpha_b (1+x)^beta_b at points xs[b, :].

    Orthonormal forward recurrence run side by side for every weight b and
    point; returns shape (len(ns), B, P).  The entropy ignores the total
    mass, so p_0 = 1 stands in for 1/sqrt(mass).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n_max = max(ns)
    wanted = {n: i for i, n in enumerate(ns)}
    out = np.empty((len(ns), xs.shape[0], xs.shape[1]))
    p_prev = np.zeros_like(xs)
    p = np.ones_like(xs)
    k_sum = np.ones_like(xs)
    s_sum = np.zeros_like(xs)
    if 1 in wanted:
        out[wanted[1]] = _entropy(k_sum, s_sum)
    for k0 in range(0, n_max, block):
        k1 = min(n_max + 1, k0 + block + 1)
        a, sb = _jacobi_block(alphas, betas, k0, k1)
        for i in range(k1 - k0 - 1):
            # p_{k+1} = ((x - a_k) p_k - sqrt(b_k) p_{k-1}) / sqrt(b_{k+1})
            k = k0 + i
            if k + 1 >= n_max:
                break
            sb_next = sb[i + 1][:, None]
            p_prev, p = p, ((xs - a[i][:, None]) * p - sb[i][:, None] * p_prev) / sb_next
            q = p * p
            k_sum = k_sum + q
            s_sum = s_sum + _xlogx(q)
            if k + 2 in wanted:
                out[wanted[k + 2]] = _entropy(k_sum, s_sum)
    return out


def gauss_jacobi_rule(alpha: float, beta: float, size: int):
    """Nodes and unit-mass weights of the size-point Gauss-Jacobi rule.

    Nodes are the eigenvalues of the Jacobi matrix built from the
    textbook coefficients; each weight is 1 / sum_k p_k(t)^2 with the
    orthonormal p_k run forward from p_0 = 1.
    """
    a, sb = _jacobi_block(np.array([alpha]), np.array([beta]), 0, size)
    a, sb = a[:, 0], sb[:, 0]
    t = eigvalsh_tridiagonal(a, sb[1:], lapack_driver="sterf")
    p_prev, p, k_sum = np.zeros_like(t), np.ones_like(t), np.ones_like(t)
    for k in range(size - 1):
        p_prev, p = p, ((t - a[k]) * p - sb[k] * p_prev) / sb[k + 1]
        k_sum += p * p
    return t, 1.0 / k_sum


def stieltjes_entropies(weight, xs, n: int) -> np.ndarray:
    """Entropy at each x of the size-n distribution for a non-constant-h weight.

    Discretized Stieltjes procedure on a Gauss-Jacobi rule of 2n + 50
    nodes for the bare Jacobi part, with h folded into the weights, then
    the orthonormal forward recurrence at xs.
    """
    t, w = gauss_jacobi_rule(weight.alpha, weight.beta, 2 * n + RULE_EXTRA)
    theta = np.arccos(t)
    wh = w * np.exp(sum(c * np.cos(m * theta) for m, c in enumerate(weight.logh)))
    a, sb = np.zeros(n), np.zeros(n)
    q_prev, q = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(wh.sum()))
    for k in range(n):
        a[k] = np.dot(wh * t, q * q)
        if k + 1 < n:
            r = (t - a[k]) * q - sb[k] * q_prev
            sb[k + 1] = math.sqrt(np.dot(wh, r * r))
            q_prev, q = q, r / sb[k + 1]
    xs = np.asarray(xs, dtype=float)
    p_prev, p = np.zeros_like(xs), np.ones_like(xs)
    k_sum, s_sum = np.ones_like(xs), np.zeros_like(xs)
    for k in range(n - 1):
        p_prev, p = p, ((xs - a[k]) * p - sb[k] * p_prev) / sb[k + 1]
        q2 = p * p
        k_sum += q2
        s_sum += _xlogx(q2)
    return _entropy(k_sum, s_sum)


def phase_shift(alpha: float, beta: float, logh, theta: float) -> float:
    series = math.fsum(c * math.sin(m * theta) for m, c in enumerate(logh) if m >= 1)
    return 0.5 * ((alpha + beta) * theta - alpha * math.pi) + 0.5 * series


def limit_reference(weight, angle) -> tuple[float, float]:
    """(phase average, limiting divergence) by direct k-term averaging."""
    if not angle.rational:
        return 0.5 - _LOG2, 1.0 - _LOG2
    theta = angle.theta
    phi = phase_shift(weight.alpha, weight.beta, weight.logh, theta)
    terms = []
    for i in range(angle.k):
        y2 = math.cos((i + 0.5) * theta + phi - 0.25 * math.pi) ** 2
        terms.append(y2 * math.log(y2) if y2 > 0.0 else 0.0)
    average = math.fsum(terms) / angle.k
    return average, _LOG2 + 2.0 * average


class LowNOracle:
    """mpmath entropy of the size-n distribution for a non-constant-h weight.

    The Gram matrix of Chebyshev polynomials T_0..T_{n-1} under the weight
    comes from tanh-sinh quadrature in t (x = cos t) at 20 digits; its
    Cholesky factor gives the orthonormal values at x.  Built lazily, so
    workloads without such weights never import mpmath.
    """

    def __init__(self, step_inv: int = 32, u_max: int = 5):
        import mpmath

        self.mp = mpmath
        mpmath.mp.dps = 20
        h = mpmath.mpf(1) / step_inv
        half_pi = mpmath.pi / 2
        self.table = []
        for i in range(-u_max * step_inv, u_max * step_inv + 1):
            u = i * h
            s = half_pi * mpmath.sinh(u)
            e = mpmath.exp(2 * s)
            t, t_comp = mpmath.pi * e / (1 + e), mpmath.pi / (1 + e)
            w = h * half_pi * half_pi * mpmath.cosh(u) / mpmath.cosh(s) ** 2
            self.table.append((w, mpmath.cos(t), mpmath.log(mpmath.sin(t / 2)),
                               mpmath.log(mpmath.sin(t_comp / 2))))

    def entropy(self, weight, x: float, n: int) -> float:
        mp = self.mp
        ea, eb = 2 * mp.mpf(weight.alpha) + 1, 2 * mp.mpf(weight.beta) + 1
        logh = [mp.mpf(c) for c in weight.logh]
        k_max = max(2 * n - 2, len(logh) - 1)
        moments = [mp.mpf(0)] * (2 * n - 1)
        for w, c1, log_sin, log_cos in self.table:
            cheb = [mp.mpf(1), c1]
            for _ in range(2, k_max + 1):
                cheb.append(2 * c1 * cheb[-1] - cheb[-2])
            lh = mp.fsum(c * cheb[m] for m, c in enumerate(logh))
            g = w * mp.exp(ea * log_sin + eb * log_cos + lh)
            for k in range(2 * n - 1):
                moments[k] += g * cheb[k]
        gram = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = (moments[i + j] + moments[abs(i - j)]) / 2
        xm = mp.mpf(x)
        tx = [mp.mpf(1), xm]
        while len(tx) < n:
            tx.append(2 * xm * tx[-1] - tx[-2])
        p = mp.lu_solve(mp.cholesky(gram), mp.matrix(tx[:n]))
        q = [p[j] ** 2 for j in range(n)]
        k_sum = mp.fsum(q)
        s_sum = mp.fsum(v * mp.log(v) for v in q if v > 0)
        return float(mp.log(k_sum) - s_sum / k_sum)


# --------------------------------------------------------------------------
# Output parsing and per-operation checks.


def _rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    _require(bool(lines) and lines[0] == header, f"unexpected header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def data_rows(out: str) -> int:
    """Result rows in one operation's output: lines less the CSV header, or
    less the verify summary line (verify has one row per check)."""
    return max(0, out.count("\n") - 1)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


def _entropy_rows(op: Op, out: str) -> list[tuple[int, float, float, float, str, str]]:
    rows = _rows(out, ENTROPY_HEADER)
    _require(len(rows) == len(op.ns) * len(op.xs),
             f"expected {len(op.ns) * len(op.xs)} rows, got {len(rows)}")
    parsed = []
    expected = [(n, x) for n in sorted(op.ns) for x in sorted(op.xs)]
    for cells, (n, x) in zip(rows, expected):
        _require(int(cells[0]) == n, f"row n {cells[0]} != {n}")
        _close(float(cells[1]), x, 1e-12, "x")
        h, d = float(cells[2]), float(cells[3])
        _require(-1e-12 <= h <= math.log(n) + 1e-12, f"entropy {h} outside [0, log {n}]")
        _close(d, math.log(n) - h, 1e-12 * max(1.0, math.log(n)), "divergence")
        parsed.append((n, float(cells[1]), h, d, cells[4], cells[5]))
    return parsed


def _check_limit_cells(op: Op, parsed) -> None:
    if op.angle is None:
        for row in parsed:
            _require(row[4] == "" and row[5] == "", "unexpected limit columns")
        return
    _, d_inf = limit_reference(op.weight, op.angle)
    for n, _, _, d, d_cell, gap_cell in parsed:
        _close(float(d_cell), d_inf, 1e-12, "d_infinity")
        _close(float(gap_cell), d - float(d_cell), 1e-12, "gap")


class Checker:
    """Checks every operation of a run; ``run_cli(argv)`` returns (code, stdout).

    ``low_n_probe`` collects, per non-constant-h operation, the error of
    the program's own ``entropy --n 6`` row against mpmath.  That row is
    not a timed operation and uses a much smaller Stieltjes rule than the
    timed ones, so it is reported beside the run, not counted as a
    failure of the operation.
    """

    def __init__(self, run_cli):
        self.run_cli = run_cli
        self._oracle = None
        self.low_n_probe: list[tuple[str, float]] = []

    def check_all(self, ops: list[Op], results: list[tuple[int, str]]) -> list[str | None]:
        errors: list[str | None] = [None] * len(ops)
        jacobi: list[tuple[int, list]] = []
        for i, (op, (code, out)) in enumerate(zip(ops, results)):
            try:
                _require(code == 0, f"exit code {code}")
                parsed = self._check_one(op, out)
                if parsed is not None:
                    jacobi.append((i, parsed))
            except CheckError as exc:
                errors[i] = f"{' '.join(op.argv)}: {exc}"
            except (ValueError, IndexError) as exc:
                errors[i] = f"{' '.join(op.argv)}: unparsable output ({exc})"
        for i, error in self._check_jacobi(ops, jacobi):
            errors[i] = f"{' '.join(ops[i].argv)}: {error}"
        return errors

    def _check_one(self, op: Op, out: str):
        """Checks one output; returns parsed rows still owed a Jacobi check."""
        if op.kind == "verify":
            lines = out.splitlines()
            _require(len(lines) >= 2, "verify printed nothing")
            _require(all(line.startswith("PASS ") for line in lines[:-1]),
                     "a verify check did not pass")
            total = len(lines) - 1
            _require(lines[-1] == f"verify: {total}/{total} checks passed",
                     f"unexpected summary {lines[-1]!r}")
            return None
        if op.kind == "zeros_schedule":
            self._check_zeros_schedule(op, out)
            return None
        if op.kind == "zeros_subsequence":
            self._check_subsequence(op, out)
            return None
        if op.kind == "limit":
            self._check_limit(op, out)
            return None
        parsed = _entropy_rows(op, out)
        _check_limit_cells(op, parsed)
        if op.kind == "entropy_h":
            self._check_h_rows(op, parsed)
            return None
        kind = {"chebyshev_t": "T", "chebyshev_u": "U"}.get(op.weight.name)
        if kind is None:
            return parsed
        ns = sorted(op.ns)
        xs = sorted({row[1] for row in parsed})
        table = chebyshev_entropies(kind, [math.acos(x) for x in xs], ns)
        for n, x, h, _, _, _ in parsed:
            _close(h, table[xs.index(x), ns.index(n)], TOL, f"entropy n={n} x={x}")
        return None

    def _check_jacobi(self, ops: list[Op], pending):
        """Jacobi and Legendre rows, grouped by point count and schedule."""
        groups: dict[tuple, list] = {}
        for i, parsed in pending:
            key = (len(ops[i].xs), tuple(sorted(ops[i].ns)))
            groups.setdefault(key, []).append((i, parsed))
        for (_, ns), members in groups.items():
            xs = [sorted({row[1] for row in parsed}) for _, parsed in members]
            table = jacobi_entropies(
                [ops[i].weight.alpha for i, _ in members],
                [ops[i].weight.beta for i, _ in members],
                xs, list(ns),
            )
            for b, (i, parsed) in enumerate(members):
                for n, x, h, _, _, _ in parsed:
                    want = table[ns.index(n), b, xs[b].index(x)]
                    if abs(h - want) > TOL:
                        yield i, f"entropy n={n} x={x}: got {h!r}, want {want!r}"
                        break

    def _check_h_rows(self, op: Op, parsed) -> None:
        """Timed rows against ``stieltjes_entropies`` at their own n; that
        reference against mpmath at n = 6; then the program's n = 6 probe."""
        xs = sorted({row[1] for row in parsed})
        table = {n: stieltjes_entropies(op.weight, xs, n) for n in sorted(op.ns)}
        for n, x, h, _, _, _ in parsed:
            _close(h, table[n][xs.index(x)], TOL, f"entropy n={n} x={x}")
        if self._oracle is None:
            self._oracle = LowNOracle()
        want = self._oracle.entropy(op.weight, op.xs[0], LOW_N)
        reference = stieltjes_entropies(op.weight, [op.xs[0]], LOW_N)[0]
        _close(reference, want, TOL, f"reference at n={LOW_N} against mpmath")
        code, out = self.run_cli(list(op.extra["low_argv"]))
        try:
            _require(code == 0, f"exit code {code}")
            rows = _rows(out, ENTROPY_HEADER)
            _require(len(rows) == 1, "no single row")
            error = abs(float(rows[0][2]) - want)
        except (CheckError, ValueError, IndexError):
            error = math.inf
        self.low_n_probe.append((" ".join(op.extra["low_argv"]), error))

    def _check_zeros_schedule(self, op: Op, out: str) -> None:
        kind = op.extra["kind"]
        rows = _rows(out, ZEROS_HEADER)
        _require(len(rows) == sum(op.ns), f"expected {sum(op.ns)} rows, got {len(rows)}")
        pos = 0
        for n in sorted(op.ns):
            thetas = [_zero_theta(kind, n, j) for j in range(1, n + 1)]
            want = chebyshev_entropies(kind, thetas, [n])[:, 0]
            for j in range(1, n + 1):
                cells = rows[pos]
                pos += 1
                _require((int(cells[0]), int(cells[1])) == (n, j), f"row index {cells[:2]}")
                self._check_zero_row(kind, n, j, cells, want[j - 1], want[j - 1])
                _require(abs(float(cells[5])) <= ZEROS_TOL, f"|diff| {cells[5]} > 1e-10")

    def _check_subsequence(self, op: Op, out: str) -> None:
        kind = op.extra["kind"]
        rows = _rows(out, ZEROS_HEADER)
        items = subsequence_items(op.family, op.angle, op.extra["count"])
        _require(len(rows) == len(items), f"expected {len(items)} rows, got {len(rows)}")
        at_angle: dict[int, float] = {}
        for cells, (n, j) in zip(rows, items):
            _require((int(cells[0]), int(cells[1])) == (n, j), f"row index {cells[:2]} != {(n, j)}")
            if n not in at_angle:
                at_angle[n] = chebyshev_entropies(kind, [op.angle.theta], [n])[0, 0]
            at_zero = chebyshev_entropies(kind, [_zero_theta(kind, n, j)], [n])[0, 0]
            self._check_zero_row(kind, n, j, cells, at_zero, at_angle[n])

    @staticmethod
    def _check_zero_row(kind, n, j, cells, closed_want, direct_want) -> None:
        zero, closed, direct, diff = (float(c) for c in cells[2:6])
        _close(zero, math.cos(_zero_theta(kind, n, j)), 1e-15, f"zero ({n},{j})")
        _close(closed, closed_want, ZEROS_TOL, f"closed form ({n},{j})")
        _close(direct, direct_want, ZEROS_TOL, f"direct ({n},{j})")
        _close(diff, closed - direct, 1e-13, f"diff ({n},{j})")

    def _check_limit(self, op: Op, out: str) -> None:
        rows = _rows(out, LIMIT_HEADER)
        _require(len(rows) == 1, "limit printed no single row")
        cells = rows[0]
        angle = op.angle
        _close(float(cells[0]), angle.theta, 1e-15, "theta")
        _require(cells[1] == ("rational" if angle.rational else "irrational"), "angle type")
        if angle.rational:
            _require((int(cells[2]), int(cells[3])) == (angle.s, angle.k), "s/k")
        average, d_inf = limit_reference(op.weight, angle)
        _close(float(cells[4]), average, 1e-12, "phase_average")
        _close(float(cells[5]), d_inf, 1e-12, "d_infinity")
        if op.weight.name == "chebyshev_t" and angle.rational:
            _close(float(cells[6]), d_inf, 1e-10, "closed form against the phase average")
        else:
            _require(cells[6] == "", "unexpected closed form")


def _zero_theta(kind: str, n: int, j: int) -> float:
    if kind == "T":
        return (2 * j - 1) * math.pi / (2 * n)
    return j * math.pi / (n + 1)


def _primes():
    found: list[int] = []
    candidate = 2
    while True:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
            yield candidate
        candidate += 1


def subsequence_items(family: int, angle, count: int) -> list[tuple[int, int]]:
    """(n, j) pairs of the zero-tracking families, in increasing n."""
    if family == 4:
        return [(m * angle.k - 1, angle.s * m) for m in range(1, count + 1)]
    if family == 2:
        return [(angle.k * (2 * m + 1) // 2, (angle.s * (2 * m + 1) + 1) // 2)
                for m in range(1, count + 1)]
    ratio = angle.theta / math.pi
    items = []
    for p in _primes():
        n = p if family == 1 else p - 1
        j = math.floor(ratio * n)
        if j >= 1:
            items.append((n, j))
            if len(items) == count:
                return items
