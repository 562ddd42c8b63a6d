"""The benchmark's tracer (perfbench/tracer.py) still reads the library.

The tracer wraps the package's public functions from outside and derives
its per-layer metrics from their names, arguments and results.  A change
to those that breaks a traced run shows here, in the tier-1 suite, rather
than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import scipy.sparse.linalg

import shrinker_index
import shrinker_index.cli  # noqa: F401  the tracer wraps every module

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_report_layer_metrics(tmp_path, capsys):
    tracer = _load_tracer()
    cli = shrinker_index.cli
    curve = str(tmp_path / "curve64.csv")
    assert cli.main(["solve", "--points", "64", "--out", curve]) == 0
    runs = [
        ["index", "--points", "64"],
        ["asymptotics", "--curve", curve, "--j-max", "10", "--k-scan", "3",
         "--out", str(tmp_path / "asy")],
        ["render", "--curve", curve, "--k", "2", "--j", "1", "--ntheta", "6",
         "--out", str(tmp_path / "torus")],
        ["convergence", "--points-list", "64,96,128", "--k-max", "1",
         "--out", str(tmp_path / "study")],
    ]
    spans = tracer.Tracer(shrinker_index)
    with spans:
        for op, argv in enumerate(runs):
            spans.op = op
            assert cli.main(argv) == 0
    capsys.readouterr()

    assert not hasattr(shrinker_index.spectral.spectrum, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli._COMMANDS["render"], "__wrapped__")
    assert not hasattr(scipy.sparse.linalg.spsolve, "__wrapped__")

    index, asy, render, study = [tracer.layer_metrics(op)
                                 for op in tracer.per_operation(spans.spans)]
    assert index["spectral.compute_index.k_walked"] == 4
    assert [m["spectral.spectrum.modes"] for m in (index, asy, render)] == [
        9, 23, 2]
    assert index["stability.operator_bytes"] > 0
    assert index["solver.newton_steps"] > 0
    assert render["render.obj_surface.bytes"] > 0
    assert asy["asymptotics.drift_diagnostic.calls"] == 1
    # 3 resolutions x 2 k x 4 modes, one fit per quantity (8 + entropy)
    assert study["convergence.fit_loglog.calls"] == 9
    assert study["spectral.spectrum.modes"] == 24
    assert study["solver.solve_geodesic.calls"] == 3
    assert study["convergence.run_study.busy_s"] > 0
