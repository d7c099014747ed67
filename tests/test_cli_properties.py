"""Property tests of ``cli.main`` at the edges of the domain.

alpha and beta near -1 and up to about 2000, x near +-1, n up to 10^5 for
one point, and log-h coefficients up to 10^3 in size.  Every example must
exit 0, 2 or 3, print at most one line on stderr, and print only finite
rows; pytest turns every warning into an error.  The examples are drawn
deterministically, so every run of the suite checks the same inputs.
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


def check_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1, (argv, err)
    if code == 0:
        lines = out.splitlines()
        assert lines[0] == "n,x,shannon,divergence,d_infinity,gap"
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",") if c]
            assert all(map(math.isfinite, cells)), (argv, line)
    else:
        assert out == ""


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
