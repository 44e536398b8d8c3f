"""The names and texts the benchmark under perfbench/ binds to.

perfbench/ reaches into nfsar by attribute name and parses one warning
text; these tests load or parse its modules by file path (their main is not
run) so that renaming a bound name fails here and not only in a benchmark run.
"""

import ast
import importlib.util
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from nfsar import cli_io, imaging, suppression
from nfsar.core_model import Aperture, PointTarget, RadarParams, Scene, synthesize_echo
from nfsar.imaging import GridAxis, ImageGrid, backproject_2d, range_compress

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_perfbench("tracing")
    for module, name, _ in tracing.WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("script", ["run", "setup_probe", "tracing", "workloads"])
def test_every_nfsar_attribute_perfbench_reads_resolves(script):
    # Parsed, not run: a name the benchmark reads only in a workload's run
    # or check would otherwise fail only in a benchmark run.
    tree = ast.parse((PERFBENCH / f"{script}.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name == "nfsar"})
        elif isinstance(node, ast.ImportFrom) and node.module == "nfsar":
            modules.update({a.asname or a.name: f"nfsar.{a.name}" for a in node.names})
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert reads
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_stage_has_a_function():
    assert set(cli_io.STAGE_ORDER) <= set(cli_io.STAGE_FUNCS)


@pytest.mark.parametrize("workload", ["pipeline2d", "volume3d", "image3d-large"])
def test_config_loads(workload):
    cli_io.load_config(PERFBENCH / "configs" / f"{workload}.json")


RADAR = RadarParams(f0=9e9, delta_f=3e9 / 128, num_freq=128)


def edge_of_swath_profiles():
    aperture = Aperture(kind="linear", origin=(-0.075, 0.0, 0.0), azimuth_count=16, azimuth_spacing=0.01)
    return range_compress(synthesize_echo(RADAR, aperture, Scene(targets=[PointTarget((0.0, 3.0, 0.0))])), 8)


def test_swath_warning_matches_the_parsed_text():
    run = load_perfbench("run")
    grid = ImageGrid((GridAxis(RADAR.unambiguous_range - 0.1, 0.025, 9), GridAxis(-0.05, 0.025, 5)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backproject_2d(edge_of_swath_profiles(), grid)
    (record,) = caught
    assert record.filename == __file__  # stacklevel points at the caller
    match = run.SWATH_WARNING.search(str(record.message))
    assert match is not None and 0 < int(match.group(1)) < 9 * 5 * 16


def test_swath_warning_count_is_the_same_when_rows_are_split(monkeypatch):
    run = load_perfbench("run")
    profiles = edge_of_swath_profiles()
    grid = ImageGrid((GridAxis(RADAR.unambiguous_range - 1.0, 0.008, 256), GridAxis(-0.64, 0.01, 128)))
    counts = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert imaging._slab_count(grid.shape) == cpus
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backproject_2d(profiles, grid)
        matches = [run.SWATH_WARNING.search(str(w.message)) for w in caught]
        counts.append([int(m.group(1)) for m in matches if m])
    assert counts[0] == counts[1] and len(counts[0]) == 1 and counts[0][0] > 0


@pytest.mark.parametrize("planar, per_slice, calls",
                         [(False, False, 1), (False, True, 1), (True, False, 1), (True, True, 3)],
                         ids=["2d", "2d-per-slice", "3d-whole", "3d-per-slice"])
def test_suppress_stage_calls_decompose_through_the_module(tmp_path, monkeypatch, planar, per_slice, calls):
    # perfbench times the solver by rebinding suppression.decompose; a stage
    # that reached the solver another way would leave that span at 0.
    grid = {"range": {"start": 1.8, "spacing": 0.05, "count": 7}, "azimuth": {"start": -0.1, "spacing": 0.05, "count": 5}}
    if planar:
        grid["height"] = {"start": -0.05, "spacing": 0.05, "count": 3}
    config = cli_io.parse_config({
        "radar": {"f0": 9e9, "delta_f": 46875000.0, "num_freq": 64},
        "aperture": {"kind": "planar" if planar else "linear", "origin": [-0.1, 0.0, -0.1 if planar else 0.0],
                     "azimuth_count": 8, "azimuth_spacing": 0.03, "height_count": 8 if planar else 1,
                     "height_spacing": 0.03},
        "scene": {"targets": [{"position": [0.0, 2.0, 0.0]}], "interferers": [{"delay_range": 1.9}]},
        "grid": grid,
        "solver": {"max_iter": 20, "per_slice_3d": per_slice},
        "oversample": 4,
        "output_dir": str(tmp_path / "out"),
    })
    decompose = suppression.decompose
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(suppression, "decompose", counting)
    cli_io.run_pipeline(config, ["simulate", "compress", "image", "suppress"])
    assert len(seen) == calls


def small_pipeline_config(out):
    return cli_io.parse_config({
        "radar": {"f0": 9e9, "delta_f": 46875000.0, "num_freq": 64},
        "aperture": {"kind": "linear", "origin": [-0.1, 0.0, 0.0], "azimuth_count": 8, "azimuth_spacing": 0.03},
        "scene": {"targets": [{"position": [0.0, 2.0, 0.0]}], "interferers": [{"delay_range": 1.9}]},
        "grid": {"range": {"start": 1.8, "spacing": 0.025, "count": 13},
                 "azimuth": {"start": -0.1, "spacing": 0.025, "count": 9}},
        "solver": {"max_iter": 20},
        "oversample": 4,
        "output_dir": str(out),
        "guard_cells": 1,
    })


def test_pipeline_moves_arrays_through_the_module(tmp_path, monkeypatch):
    # perfbench's cli_io.read and cli_io.write spans rebind these two names.
    calls = {"read_array": 0, "write_array": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cli_io, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli_io, name, counting)
    cli_io.run_pipeline(small_pipeline_config(tmp_path / "out"))
    assert calls == {"read_array": 5, "write_array": 6}


def test_decompose_calls_update_target_through_the_module(monkeypatch):
    # perfbench's suppression.update_target span times the solver's X steps.
    update_target = suppression.update_target
    calls = []
    monkeypatch.setattr(suppression, "update_target", lambda *args: calls.append(1) or update_target(*args))
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    result = suppression.decompose(matrix, suppression.SolverConfig(max_iter=30))
    assert result.iterations_run > 1
    # a restart discards the extrapolated step and takes the plain one; each warm step takes one
    assert result.warm_steps > 0
    assert len(calls) == result.iterations_run + result.restarts + result.warm_steps


def test_pipeline2d_scenes_pass_the_benchmark_check(tmp_path):
    # The benchmark's own check: report parse, target placement, quality
    # floors, and scene 2's files byte-identical to scene 1's.
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS["pipeline2d"](seed=1, work_dir=tmp_path)
    for scene_id in (1, 2):
        assert workload.check(scene_id, workload.run(scene_id), 0) == []
