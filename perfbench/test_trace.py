"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_trace.py

The counts a later change may cite must repeat exactly between two traced
runs of the same code, spans must nest under their parents, and
BENCHMARK.json must list exactly the metrics the benchmark prints.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Counts that must repeat exactly.
COUNTS = ("solver.newton_steps", "solver.trial_evals", "eigh.calls",
          "spectral.spectrum.modes", "stability.operator_bytes")


@pytest.fixture(scope="module")
def package():
    return run.import_package()


def traced_operation(package, name, seed, tmp_path):
    """Set up the workload, then trace one operation; returns the Tracer."""
    workload = workloads.WORKLOADS[name](seed, package)
    setup_dir = tmp_path / "setup"
    slot = tmp_path / "op"
    setup_dir.mkdir(parents=True)
    slot.mkdir()
    workload.setup(str(setup_dir))
    spans = tracer.Tracer(package)
    spans.op = 0
    probe = workloads.ResidualProbe(package.spectral)
    with spans, probe:
        calls = workload.operation(str(slot), probe)
    assert all(workloads.check_call(c) == [] for c in calls)
    return spans


@pytest.mark.parametrize("name", ["solve-ladder", "render"])
def test_counts_repeat(package, name, tmp_path):
    first = tracer.layer_metrics(
        traced_operation(package, name, 5, tmp_path / "a").spans)
    second = tracer.layer_metrics(
        traced_operation(package, name, 5, tmp_path / "b").spans)
    assert [first[k] for k in COUNTS] == [second[k] for k in COUNTS]
    if name == "solve-ladder":
        assert first["solver.newton_steps"] > 0
    else:
        assert first["eigh.calls"] > 0
        assert first["stability.operator_bytes"] > 0


def test_spans_nest_and_wrappers_are_removed(package, tmp_path):
    original = package.spectral.spectrum
    spans = traced_operation(package, "render", 2, tmp_path).spans
    assert package.spectral.spectrum is original
    assert not hasattr(package.cli._COMMANDS["render"], "__wrapped__")
    assert not hasattr(package.curve.read_curve, "__wrapped__")
    by_id = {s[0]: s for s in spans}
    names = {s[3] for s in spans}
    assert {"cli.main", "cli.render", "spectral.spectrum", "eigh",
            "render.obj_surface"} <= names
    for span in spans:
        if span[1] is None:
            assert span[3] == "cli.main"
            continue
        parent = by_id[span[1]]
        assert parent[4] <= span[4] <= span[5] <= parent[5]
    eigh = [s for s in spans if s[3] == "eigh"]
    assert all(by_id[s[1]][3] == "spectral.spectrum" for s in eigh)


def test_benchmark_json_matches_printed_metrics(package):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = set(tracer.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
