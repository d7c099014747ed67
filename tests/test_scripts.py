import importlib.util
import math
from pathlib import Path

from orthoentropy import christoffel_distribution, kl_divergence, limit_divergence, weight_recurrence
from orthoentropy.entropy import format_float

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_convergence_matches_per_size_route(capsys):
    script = load_script("divergence_convergence")
    assert script.main(["--n-max", "400"]) == 0
    lines = ["weight,angle,n,divergence,limit,gap"]
    for wname, weight in script.WEIGHTS.items():
        rec = weight_recurrence(weight, 401)
        for aname, angle in script.ANGLES.items():
            limit = limit_divergence(weight, angle)
            x = math.cos(angle.theta)
            for size in (100, 200, 400):
                divergence = kl_divergence(christoffel_distribution(rec, x, size))
                lines.append(",".join([
                    wname, aname, str(size), format_float(divergence),
                    format_float(limit), format_float(divergence - limit),
                ]))
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
