import importlib.util
import math
from pathlib import Path

from orthoentropy import (
    RationalAngle,
    christoffel_distribution,
    entropy_correction,
    limit_divergence,
    shannon_entropy,
    weight_recurrence,
    zero_entropy_gaps,
    zero_subsequence,
)
from orthoentropy.cli import format_float

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_convergence_matches_per_size_route(capsys):
    # the script's streamed entropies against direct summation per size
    script = load_script("divergence_convergence")
    assert script.main(["--n-max", "400"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "weight,angle,n,divergence,limit,gap"
    expected = []
    for wname, weight in script.WEIGHTS.items():
        rec = weight_recurrence(weight, 401)
        for aname, angle in script.ANGLES.items():
            limit = limit_divergence(weight, angle)
            x = math.cos(angle.theta)
            for size in (100, 200, 400):
                divergence = math.log(size) - shannon_entropy(christoffel_distribution(rec, x, size))
                expected.append((wname, aname, size, divergence, limit))
    assert len(lines) == len(expected)
    for line, (wname, aname, size, divergence, limit) in zip(lines, expected):
        cells = line.split(",")
        assert cells[:3] == [wname, aname, str(size)]
        assert abs(float(cells[3]) - divergence) < 1e-13
        assert cells[4] == format_float(limit)
        assert cells[5] == format_float(float(cells[3]) - limit)


def test_zero_gap_scan_rows(capsys):
    script = load_script("zero_gap_scan")
    assert script.main(["--count", "6"]) == 0
    lines = ["kind,family,n,j,gap"]
    for kind, family, s, k in (("second", 4, 1, 3), ("second", 4, 1, 2),
                               ("first", 2, 1, 4), ("first", 4, 1, 3), ("first", 4, 1, 5)):
        angle = RationalAngle(s, k)
        items = zero_subsequence(family, angle, 6)
        for item, gap in zip(items, zero_entropy_gaps(kind, angle, items)):
            lines.append(",".join([kind, str(family), str(item.n), str(item.j), format_float(gap)]))
        if kind == "first" and k % 2 == 1:
            ceiling = 2.0 * entropy_correction(0.5 / k) - entropy_correction(1.0 / k)
            lines.append(f"# first kind, k={k}: gap ceiling "
                         f"2*correction(1/(2k)) - correction(1/k) = {format_float(ceiling)}")
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
