"""Property tests of ``cli.main`` at the edges of the domain.

alpha and beta near -1 and up to about 2000, x near +-1, n up to 10^5 for
one point, and log-h coefficients up to 10^3 in size; for ``limit`` and
``zeros --subsequence``, rational angles with k up to 10^4 and irrational
angles down to 1e-300 (1e-3 for the prime families).  One more test draws
alpha and beta from every finite double above -1 and log-h coefficients
from every finite double, for ``limit`` and one-point ``entropy``.  Every
example must
exit 0, 2 or 3, print only finite rows, and print at most one line on
stderr, which starts ``config error:`` for exit 2 and ``numeric error:``
for exit 3; pytest turns every warning into an error.  The last tests check
values: the paper's reflection symmetry of ``entropy`` and ``limit`` and
rows that do not move under a log h too small to change h in doubles, at
exponents up to 200, and the plateau 1 - log(2) of the limit at every
irrational angle.  The examples are drawn deterministically, so every
run of the suite checks the same inputs.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from orthoentropy.cli import main

# -1 + 10^-u, up to about 2000
exponents = st.one_of(
    st.floats(0.0, 6.0).map(lambda u: -1.0 + 10.0 ** -u),
    st.floats(-0.999, 2000.0),
)
# +-(1 - 10^-u), and anywhere inside
points = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 15.0)).map(
        lambda su: su[0] * (1.0 - 10.0 ** -su[1])
    ),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
logh_coeffs = st.lists(st.floats(-1000.0, 1000.0), min_size=2, max_size=4)
# every finite double above -1, and every finite double
any_exponents = st.floats(-1.0, exclude_min=True, allow_infinity=False)
any_coeffs = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)
# "s/k" with 0 < s < k <= 10^4
rational_angles = st.integers(2, 10_000).flatmap(
    lambda k: st.integers(1, k - 1).map(lambda s: f"{s}/{k}")
)

ENTROPY_HEADER = "n,x,shannon,divergence,d_infinity,gap"
LOG2 = math.log(2.0)
PREFIXES = {2: "config error: ", 3: "numeric error: "}


def check_run(argv, header=ENTROPY_HEADER):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1, (argv, err)
    if code == 0:
        lines = out.splitlines()
        assert lines[0] == header
        names = header.split(",")
        for line in lines[1:]:
            cells = [float(c) for name, c in zip(names, line.split(","))
                     if c and name != "angle_type"]
            assert all(map(math.isfinite, cells)), (argv, line)
    else:
        assert out == ""
        assert err.startswith(PREFIXES[code]), (argv, err)


def weight_args(alpha, beta):
    return [f"--alpha={alpha!r}", f"--beta={beta!r}"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=exponents, beta=exponents, x=points, n=st.integers(1, 100_000))
def test_one_point(alpha, beta, x, n):
    check_run(["entropy", f"--x={x!r}", "--n", str(n), *weight_args(alpha, beta)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=exponents, beta=exponents, a=points, b=points,
       count=st.integers(1, 20), ns=st.sets(st.integers(1, 3000), min_size=1, max_size=3))
def test_grid(alpha, beta, a, b, count, ns):
    a, b = min(a, b), max(a, b)
    step = (b - a) / count if b > a else 1.0
    schedule = ",".join(map(str, sorted(ns)))
    check_run(["scan", f"--x-grid={a!r}:{b!r}:{step!r}", "--n-schedule", schedule,
               *weight_args(alpha, beta)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=exponents, beta=exponents, x=points, n=st.integers(1, 300), coeffs=logh_coeffs)
def test_non_constant_h(alpha, beta, x, n, coeffs):
    check_run(["entropy", f"--x={x!r}", "--n", str(n), *weight_args(alpha, beta),
               f"--logh-coeffs={','.join(map(repr, coeffs))}"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=exponents, beta=exponents,
       angle=st.one_of(
           rational_angles.map(lambda a: f"--angle={a}"),
           st.floats(1e-300, math.pi, exclude_max=True).map(lambda t: f"--theta={t!r}"),
       ))
def test_limit(alpha, beta, angle):
    check_run(["limit", angle, *weight_args(alpha, beta)],
              header="theta,angle_type,s,k,phase_average,d_infinity,cheb_t_closed_form")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["T", "U"]), count=st.integers(1, 20),
       family_angle=st.one_of(
           st.tuples(st.sampled_from(["2", "4"]), rational_angles.map(lambda a: f"--angle={a}")),
           st.tuples(st.sampled_from(["1", "3"]),
                     st.floats(1e-3, math.pi, exclude_max=True).map(lambda t: f"--theta={t!r}")),
       ))
def test_zero_subsequence(kind, count, family_angle):
    family, angle = family_angle
    check_run(["zeros", "--kind", kind, "--subsequence", family, angle, "--count", str(count)],
              header="n,j,zero,closed_form,direct,diff")


# the whole finite range: an exponent or a coefficient too large for the
# arithmetic must exit 3, never warn or print a non-finite row
@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=any_exponents, beta=any_exponents, coeffs=any_coeffs, x=points,
       n=st.integers(1, 300), angle=rational_angles)
def test_whole_finite_range(alpha, beta, coeffs, x, n, angle):
    weight = [*weight_args(alpha, beta), f"--logh-coeffs={','.join(map(repr, coeffs))}"]
    check_run(["limit", f"--angle={angle}", *weight],
              header="theta,angle_type,s,k,phase_average,d_infinity,cheb_t_closed_form")
    check_run(["entropy", f"--x={x!r}", "--n", str(n), *weight])


def rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    header, *lines = out.getvalue().splitlines()
    return [
        {name: float(cell) for name, cell in zip(header.split(","), line.split(","))
         if cell and name != "angle_type"}
        for line in lines
    ]


def one_row(argv):
    [row] = rows(argv)
    return row


# p_k(-x; beta, alpha, c~) = (-1)^k p_k(x; alpha, beta, c) with c~_m = (-1)^m c_m, so
# the entropy at (alpha, beta, c, x) is the entropy at (beta, alpha, c~, -x), and
# the limit at s/k for (alpha, beta, c) is the limit at (k-s)/k for (beta, alpha, c~).
@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=st.floats(-1.0, 200.0, exclude_min=True),
       beta=st.floats(-1.0, 200.0, exclude_min=True),
       coeffs_n=st.one_of(
           st.tuples(st.just([]), st.integers(1, 3000)),
           st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), st.integers(1, 300)),
       ),
       x=st.floats(-0.99, 0.99),
       sk=st.integers(2, 400).flatmap(lambda k: st.tuples(st.integers(1, k - 1), st.just(k))))
def test_reflection(alpha, beta, coeffs_n, x, sk):
    coeffs, n = coeffs_n
    mirrored = [(-1) ** m * c for m, c in enumerate(coeffs)]
    s, k = sk

    def weight(a, b, c):
        return [*weight_args(a, b), f"--logh-coeffs={','.join(map(repr, c))}"]

    here = one_row(["entropy", f"--x={x!r}", "--n", str(n), *weight(alpha, beta, coeffs)])
    there = one_row(["entropy", f"--x={-x!r}", "--n", str(n), *weight(beta, alpha, mirrored)])
    assert abs(here["shannon"] - there["shannon"]) < 1e-12, (here, there)
    here = one_row(["limit", f"--angle={s}/{k}", *weight(alpha, beta, coeffs)])
    there = one_row(["limit", f"--angle={k - s}/{k}", *weight(beta, alpha, mirrored)])
    for name in ("phase_average", "d_infinity"):
        assert abs(here[name] - there[name]) < 1e-12, (name, here, there)


moderate_exponents = st.floats(-1.0, 3.0, exclude_min=True)


# off the rational grid the phase average is the integrand's mean 1/2 - log 2 for
# every weight, so the limit is 1 - log 2; the cells must be those doubles
@settings(max_examples=30, deadline=None, derandomize=True)
@given(alpha=moderate_exponents, beta=moderate_exponents,
       coeffs=st.lists(st.floats(-3.0, 3.0), max_size=5),
       theta=st.floats(1e-6, 3.14159))
def test_irrational_plateau(alpha, beta, coeffs, theta):
    weight = [*weight_args(alpha, beta), f"--logh-coeffs={','.join(map(repr, coeffs))}"]
    row = one_row(["limit", f"--theta={theta!r}", *weight])
    assert row["phase_average"] == 0.5 - LOG2, row
    assert row["d_infinity"] == 1.0 - LOG2, row
    for row in rows(["entropy", f"--theta={theta!r}", "--n", "5", *weight]):
        assert row["d_infinity"] == 1.0 - LOG2, row


# exp(c T_m) with |c| <= 1e-200 is 1 in doubles, so the Stieltjes rows must be the
# closed-form Jacobi rows of h = 1.
@settings(max_examples=15, deadline=None, derandomize=True)
@given(alpha=st.floats(-1.0, 200.0, exclude_min=True),
       beta=st.floats(-1.0, 200.0, exclude_min=True),
       tiny=st.sampled_from([1e-300, -1e-300, 5e-324, -5e-324, 1e-200, -1e-200]),
       index=st.integers(1, 5),
       x=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
       ns=st.sets(st.integers(1, 4000), min_size=3, max_size=3))
def test_h_invariance(alpha, beta, tiny, index, x, ns):
    argv = ["entropy", f"--x={x!r}", "--n-schedule", ",".join(map(str, sorted(ns))),
            *weight_args(alpha, beta)]
    coeffs = [0.0] * index + [tiny]
    with_h = rows([*argv, f"--logh-coeffs={','.join(map(repr, coeffs))}"])
    for here, there in zip(with_h, rows(argv), strict=True):
        for name in ("shannon", "divergence"):
            assert abs(here[name] - there[name]) < 1e-12, (name, here, there)
