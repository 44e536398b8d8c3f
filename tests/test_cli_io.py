import copy
import dataclasses
import fcntl
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from nfsar import cli_io, imaging
from nfsar.cli_io import (
    ArrayFormatError,
    ConfigError,
    PipelineError,
    export_db_image,
    load_config,
    main,
    parse_config,
    read_array,
    run_pipeline,
    write_array,
)
from nfsar.core_model import Aperture, Interferer, PointTarget, RadarParams, Saturation, Scene
from nfsar.imaging import ComplexImage, GridAxis, ImageGrid, image_to_db
from nfsar.suppression import SolverConfig, decompose, decompose_image


def minimal_config():
    return {
        "radar": {"f0": 9e9, "delta_f": 46875000.0, "num_freq": 64},
        "aperture": {"kind": "linear", "origin": [-0.2325, 0.0, 0.0],
                     "azimuth_count": 32, "azimuth_spacing": 0.015},
        "scene": {"targets": [{"position": [0.0, 2.0, 0.0], "amplitude": 1.0}]},
    }


def pipeline_config(out_dir):
    cfg = minimal_config()
    cfg["scene"]["interferers"] = [{"delay_range": 1.85, "amplitude": 5.0}]
    cfg["saturation"] = {"mode": "hard_clip", "threshold": 4.0}
    cfg["grid"] = {
        "range": {"start": 1.8, "spacing": 0.025, "count": 17},
        "azimuth": {"start": -0.15, "spacing": 0.025, "count": 13},
    }
    cfg["solver"] = {"mu": 0.02, "rho": 0.3, "auto_weights": False, "max_iter": 200}
    cfg["oversample"] = 4
    cfg["output_dir"] = str(out_dir)
    return cfg


class TestLoadConfig:
    def test_minimal_config_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(path)
        assert cfg.oversample == 8
        assert cfg.solver.tol == 1e-6 and cfg.solver.max_iter == 500
        assert cfg.solver.auto_weights
        assert cfg.saturation.mode == "none"
        assert cfg.seed == 0
        assert cfg.grid is None

    @pytest.mark.parametrize("field", ["seed", "guard_cells"])
    @pytest.mark.parametrize("value", [1.5, True, -1])
    def test_seed_and_guard_cells_must_be_nonnegative_integers(self, tmp_path, field, value):
        config = parse_config(pipeline_config(tmp_path / "out"))
        with pytest.raises(ValueError, match=f"^{field}: must be an integer >= 0, got {value!r}$"):
            dataclasses.replace(config, **{field: value})

    def test_zero_delta_f_rejected_with_path(self, tmp_path):
        bad = minimal_config()
        bad["radar"]["delta_f"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="radar.delta_f"):
            load_config(path)

    def test_experiment_style_config_accepted(self, tmp_path):
        # 3 GHz bandwidth centered at 10.5 GHz, 5 m scan, target at 4.5 m
        cfg = {
            "radar": {"f0": 9e9, "delta_f": 3e9 / 256, "num_freq": 256},
            "aperture": {"kind": "linear", "origin": [-2.5, 0.0, 0.0],
                         "azimuth_count": 128, "azimuth_spacing": 5.0 / 127},
            "scene": {"targets": [{"position": [0.0, 4.5, 0.0], "amplitude": 1.0}]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(path)
        assert loaded.radar.bandwidth == pytest.approx(3e9)
        assert loaded.radar.f0 + loaded.radar.bandwidth / 2 == pytest.approx(10.5e9)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"radar": }')
        with pytest.raises(ConfigError, match=r"line 1, column 11"):
            load_config(path)
        with pytest.raises(ConfigError, match=r"^cannot read config: "):
            load_config(tmp_path / "missing.json")

    def test_unknown_field_rejected(self):
        cfg = minimal_config()
        cfg["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            parse_config(cfg)

    def test_complex_amplitude_pairs(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["amplitude"] = [1.0, -2.0]
        parsed = parse_config(cfg)
        assert parsed.scene.targets[0].amplitude == 1.0 - 2.0j

    def test_grid_validation(self):
        cfg = minimal_config()
        cfg["grid"] = {"range": {"start": 1.0, "spacing": 0.0, "count": 5}}
        with pytest.raises(ConfigError, match="grid.range.spacing"):
            parse_config(cfg)
        cfg["grid"] = {"range": {"start": 1.0, "spacing": 0.1, "count": 5},
                       "height": {"start": 0.0, "spacing": 0.1, "count": 5}}
        with pytest.raises(ConfigError, match="azimuth"):
            parse_config(cfg)

    def test_3d_grid_needs_planar_aperture(self):
        cfg = minimal_config()
        cfg["grid"] = {
            "range": {"start": 1.0, "spacing": 0.1, "count": 5},
            "azimuth": {"start": 0.0, "spacing": 0.1, "count": 5},
            "height": {"start": 0.0, "spacing": 0.1, "count": 5},
        }
        with pytest.raises(ConfigError, match="planar"):
            parse_config(cfg)

    def test_hash_ignores_field_order_and_explicit_defaults(self):
        a = parse_config(minimal_config())
        base = minimal_config()
        reordered = {"scene": base["scene"], "aperture": base["aperture"],
                     "radar": base["radar"], "oversample": 8, "seed": 0}
        b = parse_config(reordered)
        assert a.config_hash == b.config_hash
        c_cfg = minimal_config()
        c_cfg["seed"] = 1
        assert parse_config(c_cfg).config_hash != a.config_hash

    def test_hash_ignores_output_dir(self):
        a = minimal_config()
        b = minimal_config()
        b["output_dir"] = "elsewhere"
        assert parse_config(a).config_hash == parse_config(b).config_hash

    def test_config_hash_pinned(self, tmp_path):
        assert parse_config(minimal_config()).config_hash == (
            "e37ef2668aea8b6c309b91aff6b7af68446a88cad8d26fc96d11c1c78037e535"
        )
        # output_dir is tmp_path-specific, so a pinned hash shows it is not hashed
        assert parse_config(pipeline_config(tmp_path / "out")).config_hash == (
            "c58897caca58ddd0069c22084c63275749774b2cfb9d3ef59042fe2042557887"
        )
        poly = minimal_config()
        poly["saturation"] = {"mode": "polynomial", "coefficients": [0, 1, 0, -0.1]}
        assert parse_config(poly).config_hash == (
            "561ae40d7e2cf99dde745d2dbaaaf02944f2d48119a95c0465adb8b1ff196917"
        )

    @pytest.mark.parametrize("section,key,value", [
        ("radar", "f0", float("nan")),
        ("scene", "noise_sigma", float("inf")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        cfg = minimal_config()
        cfg[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # writes the NaN / Infinity literals
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be finite"):
            load_config(path)

    @pytest.mark.parametrize("field, make", [
        ("noise_sigma", lambda nan: Scene(noise_sigma=nan)),
        ("threshold", lambda nan: Saturation(mode="hard_clip", threshold=nan)),
        ("coefficients", lambda nan: Saturation(mode="polynomial", coefficients=[1.0, nan])),
        ("mu", lambda nan: SolverConfig(mu=nan)),
        ("rho", lambda nan: SolverConfig(rho=nan)),
        ("tol", lambda nan: SolverConfig(tol=nan)),
        ("floor_db", lambda nan: dataclasses.replace(parse_config(minimal_config()), floor_db=nan)),
        ("floor_db", lambda nan: image_to_db(
            ComplexImage(np.ones((2, 2)), ImageGrid((GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2)))), nan)),
        ("amplitude", lambda nan: PointTarget((0.0, 1.0, 0.0), complex(nan, 1.0))),
    ], ids=["noise_sigma", "threshold", "coefficients", "mu", "rho", "tol", "floor_db", "image_to_db",
            "complex-amplitude"])
    def test_api_rejects_nan(self, field, make):
        # The dataclasses refuse NaN, so a config file and the API share one rule.
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            make(float("nan"))

    @pytest.mark.parametrize("section,key", [
        ("solver", "max_iters"),
        ("solver", "alpha"),
        ("radar", "deltaf"),
        ("grid", "heigth"),
    ])
    def test_unknown_nested_field_rejected(self, section, key):
        cfg = pipeline_config("out")
        cfg[section][key] = 3
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown configuration field"):
            parse_config(cfg)

    @pytest.mark.parametrize("section,key,value,expected", [
        ("aperture", "height_count", 0, "aperture.height_count: must be an integer >= 1, got 0"),
        ("aperture", "height_count", 2, "aperture.height_count: must be 1"),
        ("solver", "max_iter", 0, "solver.max_iter: must be an integer >= 1, got 0"),
        ("scene", "targets", [{"position": [0.0, -1.0, 0.0]}], r"scene.targets\[0\].position: must lie"),
        ("aperture", "origin", [0.0, 0.0], r"aperture.origin: must be a 3-vector$"),
        ("aperture", "origin", 0.0, r"aperture.origin: expected a list$"),
        ("scene", "targets", {}, r"scene.targets: expected a list$"),
        ("scene", "targets", [5], r"scene.targets\[0\]: expected an object$"),
        ("grid", "range", [1.8, 0.025, 17], r"grid.range: expected an object$"),
        ("scene", "targets", [{"position": [0.0, 2.0, 0.0], "amplitude": [1.0]}],
         r"scene.targets\[0\].amplitude: expected a number or \[real, imag\] pair$"),
        ("scene", "targets", [{"position": [0.0, 2.0, 0.0], "amplitude": [1.0, 2.0, 3.0]}],
         r"scene.targets\[0\].amplitude: expected a number or \[real, imag\] pair$"),
        ("scene", "targets", [{"position": [0.0, 2.0, 0.0], "amplitude": [1.0, "2"]}],
         r"scene.targets\[0\].amplitude\[1\]: must be a real number, got '2'$"),
        ("saturation", "threshold", None, r"saturation.threshold: must be > 0 in hard_clip mode$"),
        ("saturation", "mode", "polynomial", r"saturation.coefficients: must be non-empty in polynomial mode$"),
    ])
    def test_range_error_names_field_path(self, section, key, value, expected):
        cfg = pipeline_config("out")
        cfg[section][key] = value
        with pytest.raises(ConfigError, match="^" + expected):
            parse_config(cfg)

    def test_null_takes_default_and_required_null_is_missing(self):
        cfg = minimal_config()
        cfg.update(scene=None, solver={"mu": None, "max_iter": None}, floor_db=None)
        parsed = parse_config(cfg)
        assert parsed.scene.targets == [] and parsed.solver.max_iter == 500
        assert parsed.floor_db == -60.0
        cfg["radar"]["num_freq"] = None
        with pytest.raises(ConfigError, match="radar.num_freq: missing required field"):
            parse_config(cfg)


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
BIG_INT = 10**400  # an integer, but too large for a float or an int64
RADAR = {"f0": 9e9, "delta_f": 1e6, "num_freq": 4}

# (constructor of one bad value, field, kind of the field); None is the default of a "real?" field
FIELD_RULES = [
    (lambda v: RadarParams(**{**RADAR, "f0": v}), "f0", "real"),
    (lambda v: RadarParams(**{**RADAR, "delta_f": v}), "delta_f", "real"),
    (lambda v: RadarParams(**{**RADAR, "num_freq": v}), "num_freq", "int"),
    (lambda v: RadarParams(**RADAR, c=v), "c", "real"),
    (lambda v: Aperture("planar", origin=(0.0, v, 0.0)), "origin", "real"),
    (lambda v: Aperture("planar", azimuth_count=v), "azimuth_count", "int"),
    (lambda v: Aperture("planar", azimuth_spacing=v), "azimuth_spacing", "real"),
    (lambda v: Aperture("planar", height_count=v), "height_count", "int"),
    (lambda v: Aperture("planar", height_spacing=v), "height_spacing", "real?"),
    (lambda v: PointTarget((v, 1.0, 0.0)), "position", "real"),
    (lambda v: PointTarget((0.0, 1.0, 0.0), v), "amplitude", "real"),
    (lambda v: Interferer(v), "delay_range", "real"),
    (lambda v: Interferer(1.0, v), "amplitude", "real"),
    (lambda v: Scene(noise_sigma=v), "noise_sigma", "real"),
    (lambda v: Saturation("hard_clip", threshold=v), "threshold", "real?"),
    (lambda v: Saturation("none", threshold=v), "threshold", "real?"),
    (lambda v: Saturation("polynomial", coefficients=[1.0, v]), "coefficients", "real"),
    (lambda v: Saturation("none", coefficients=[v]), "coefficients", "real"),
    (lambda v: GridAxis(v, 1.0, 2), "start", "real"),
    (lambda v: GridAxis(0.0, v, 2), "spacing", "real"),
    (lambda v: GridAxis(0.0, 1.0, v), "count", "int"),
    (lambda v: SolverConfig(mu=v), "mu", "real?"),
    (lambda v: SolverConfig(rho=v), "rho", "real?"),
    (lambda v: SolverConfig(max_iter=v), "max_iter", "int"),
    (lambda v: SolverConfig(tol=v), "tol", "real"),
    (lambda v: SolverConfig(mu=1.0, rho=1.0, auto_weights=v), "auto_weights", "bool"),
    (lambda v: SolverConfig(per_slice_3d=v), "per_slice_3d", "bool"),
    (lambda v: dataclasses.replace(parse_config(minimal_config()), oversample=v), "oversample", "int"),
    (lambda v: dataclasses.replace(parse_config(minimal_config()), seed=v), "seed", "int"),
    (lambda v: dataclasses.replace(parse_config(minimal_config()), guard_cells=v), "guard_cells", "int"),
    (lambda v: dataclasses.replace(parse_config(minimal_config()), floor_db=v), "floor_db", "real"),
]
BAD_VALUES = {
    "real": [True, "1.5", None, [1.0], BIG_INT],
    "real?": [True, "1.5", [1.0], BIG_INT],
    "int": [True, "2", None, 2.5, 2.0, np.float64(2.0), BIG_INT],
    "bool": ["no", "false", 1, 0, None],
}


def _refusal(field, kind, value):
    """The message a field's rule gives for a value of the wrong type."""
    if value is BIG_INT:
        return rf"^{field}: must be an integer < 2\*\*63$" if kind == "int" else f"^{field}: must be finite$"
    form = {"real": "a real number", "real?": "a real number", "int": r"an integer >= \d+", "bool": "a boolean"}[kind]
    return f"^{field}: must be {form}, got {re.escape(repr(value))}$"


class TestFieldRules:
    """Each config field's type rule lives in its dataclass: Python callers and JSON files share it."""

    @pytest.mark.parametrize("make, field, kind, value", [
        pytest.param(make, field, kind, value, id=f"{field}-{value!r:.12}")
        for make, field, kind in FIELD_RULES
        for value in BAD_VALUES[kind]
    ])
    def test_wrong_type_refused(self, make, field, kind, value):
        with pytest.raises(ValueError, match=_refusal(field, kind, value)):
            make(value)

    def test_numpy_scalars_become_python_scalars(self):
        radar = RadarParams(np.float32(2.5e9), np.float64(1e6), np.int64(4), c=np.int32(3))
        assert [type(v) for v in (radar.f0, radar.delta_f, radar.num_freq, radar.c)] == [float, float, int, float]
        assert radar == RadarParams(2.5e9, 1e6, 4, c=3.0)
        target = PointTarget(np.array([0.0, 1.0, 2.0]), np.complex64(1 - 2j))
        assert target.position == (0.0, 1.0, 2.0) and type(target.amplitude) is complex
        solver = SolverConfig(max_iter=np.int16(7), auto_weights=np.bool_(True))
        assert type(solver.max_iter) is int and solver.auto_weights is True

    @pytest.mark.parametrize("field", ["seed", "guard_cells", "oversample"])
    def test_numpy_integer_gives_the_python_integer_hash(self, tmp_path, field):
        config = parse_config(pipeline_config(tmp_path / "out"))
        numpy_value = dataclasses.replace(config, **{field: np.int64(5)})
        assert type(getattr(numpy_value, field)) is int
        assert numpy_value.config_hash == dataclasses.replace(config, **{field: 5}).config_hash

    def test_numpy_seed_runs_the_pipeline(self, tmp_path):
        config = dataclasses.replace(parse_config(pipeline_config(tmp_path / "out")), seed=np.int64(1))
        manifest = run_pipeline(config, ["simulate"])
        assert manifest["seed"] == 1

    @pytest.mark.parametrize("value, message", [
        (2.5, "must be an integer >= 1, got 2.5"),
        (True, "must be an integer >= 1, got True"),
        (BIG_INT, r"must be an integer < 2\*\*63"),
    ], ids=["2.5", "True", "big-int"])
    def test_bad_oversample_refused_before_anything_is_written(self, tmp_path, value, message):
        config = parse_config(pipeline_config(tmp_path / "out"))
        with pytest.raises(ValueError, match=f"^oversample: {message}$"):
            run_pipeline(dataclasses.replace(config, oversample=value))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["radar", "aperture", "scene", "saturation", "grid", "solver"])
    def test_nested_field_of_another_type_refused_before_anything_is_written(self, tmp_path, field):
        config = parse_config(pipeline_config(tmp_path / "out"))
        value = getattr(config, field)
        with pytest.raises(ValueError, match=f"^{field}: must be of type {type(value).__name__}, got dict$"):
            run_pipeline(dataclasses.replace(config, **{field: dataclasses.asdict(value)}))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, item, kind", [("targets", (0.0, 4.5, 0.0), "PointTarget"),
                                                   ("interferers", 1.85, "Interferer")], ids=["targets", "interferers"])
    def test_scene_item_of_another_type_refused_before_anything_is_written(self, tmp_path, field, item, kind):
        config = parse_config(pipeline_config(tmp_path / "out"))
        with pytest.raises(ValueError, match=f"^{field}: must be of type {kind}, got {type(item).__name__}$"):
            scene = dataclasses.replace(config.scene, **{field: [*getattr(config.scene, field), item]})
            run_pipeline(dataclasses.replace(config, scene=scene))
        assert not (tmp_path / "out").exists()

    def test_oversample_over_the_sample_budget_is_a_config_error_at_load(self, tmp_path, capsys):
        # 10**6 x 64 x 32 profile samples would ask the transform for about
        # 32 GB.  Only simulate is asked for, so a config that loads runs no
        # transform: it writes echo.nfsc and fails the last assertion.
        cfg = pipeline_config(tmp_path / "out")
        cfg["oversample"] = 10**6
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path), "--stages", "simulate"]) == 2
        assert ("config error: oversample: profile matrix 64000000 x 32 = 2048000000 samples exceeds "
                "the budget of 67108864 samples\n") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_big_int_in_a_file_is_a_config_error_at_load(self, tmp_path, capsys):
        cfg = pipeline_config(tmp_path / "out")
        cfg["oversample"] = BIG_INT
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "oversample: must be an integer < 2**63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("mu", 0), ("rho", 0.0)])
    def test_zero_solver_weight_is_a_config_error_at_load(self, tmp_path, capsys, field, value):
        # A zero weight makes the split trivial, with a minimum of 0 that no relative gap certifies.
        with pytest.raises(ValueError, match=f"^{field}: must be finite and > 0$"):
            SolverConfig(**{field: value})
        cfg = pipeline_config(tmp_path / "out")
        cfg["solver"][field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert f"solver.{field}: must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_int_in_a_float_field_hashes_as_the_float(self):
        cfg = minimal_config()
        cfg["radar"]["num_freq"] = 64
        as_ints = copy.deepcopy(cfg)
        as_ints["scene"]["targets"][0]["position"] = [0, 2, 0]
        as_ints["scene"]["targets"][0]["amplitude"] = 1
        as_ints["floor_db"] = -60
        assert parse_config(as_ints).config_hash == parse_config(cfg).config_hash
        assert RadarParams(9, 1, 4).f0 == 9.0 and type(RadarParams(9, 1, 4).f0) is float


def _leaves(obj, path=""):
    """The dotted path of every scalar in a decoded JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        child = f"{path}[{key}]" if isinstance(obj, list) else f"{path}.{key}".lstrip(".")
        if isinstance(value, (dict, list)):
            yield from _leaves(value, child)
        else:
            yield child


def _set(cfg, path, value):
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


WRONG_JSON = ["x", True, {}, [1, 2], float("nan"), BIG_INT]


def _admits(field, value):
    """Whether a field's type admits the value (its range rule may still refuse it)."""
    if isinstance(value, str):
        return field in ("kind", "mode")
    if isinstance(value, bool):
        return field in ("auto_weights", "per_slice_3d")
    return isinstance(value, list) and field == "amplitude"  # a [real, imag] pair


class TestJsonRefusals:
    @pytest.mark.parametrize("name", ["pipeline2d", "volume3d"])
    @pytest.mark.parametrize("value", WRONG_JSON, ids=["str", "bool", "object", "list", "nan", "big-int"])
    def test_wrong_type_refused_naming_the_leaf(self, name, value):
        base = json.loads((CONFIGS / f"{name}.json").read_text())
        ignored = {**base, "saturation": {"mode": "none", "threshold": 1.0, "coefficients": [0.0, 1.0]}}
        cases = [(base, path) for path in _leaves(base)]
        cases += [(ignored, path) for path in _leaves(ignored) if path.startswith("saturation.")]
        tried, misses = 0, []
        for config, path in cases:
            field_path = re.sub(r"(\[\d+\])+$", "", path)
            if _admits(field_path.rsplit(".", 1)[-1], value):
                continue
            cfg = copy.deepcopy(config)
            _set(cfg, path, copy.deepcopy(value))
            tried += 1
            # json.dumps writes NaN and the big int as literals json.loads reads back
            try:
                parse_config(json.loads(json.dumps(cfg)))
            except ConfigError as exc:
                if re.match(re.escape(field_path) + r"(\[\d+\])*: ", str(exc)):
                    continue
                misses.append((path, str(exc)))
            else:
                misses.append((path, "accepted"))
        assert tried >= 30 and misses == []


class TestArrayFormat:
    def test_single_value_round_trip(self, tmp_path):
        path = tmp_path / "one.nfsc"
        write_array(path, np.array([[1 + 0j]], dtype=np.complex64), [(0.0, 1.0)] * 2)
        data, axes = read_array(path)
        assert data.shape == (1, 1)
        assert data[0, 0] == 1 + 0j
        assert axes == [(0.0, 1.0), (0.0, 1.0)]

    def test_random_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))).astype(np.complex64)
        path = tmp_path / "m.nfsc"
        write_array(path, data, axes=[(1.5, 0.25), (-2.0, 0.125)])
        back, axes = read_array(path)
        assert np.array_equal(back, data)
        assert axes == [(1.5, 0.25), (-2.0, 0.125)]

    def test_read_holds_the_payload_once(self, tmp_path):
        rng = np.random.default_rng(1)
        data = (rng.standard_normal((1024, 512)) + 1j * rng.standard_normal((1024, 512))).astype(np.complex64)
        path = tmp_path / "m.nfsc"
        write_array(path, data, axes=[(0.0, 1.0)] * 2)
        size = path.stat().st_size
        assert size > 4_000_000
        tracemalloc.start()
        try:
            back, _ = read_array(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.dtype == np.complex64 and back.flags.writeable
        assert back.tobytes() == data.tobytes()
        assert peak <= 1.1 * size

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nfsc"
        write_array(path, np.ones((2, 2), dtype=np.complex64), [(0.0, 1.0)] * 2)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ArrayFormatError, match="magic"):
            read_array(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.nfsc"
        write_array(path, np.ones((2, 2), dtype=np.complex64), [(0.0, 1.0)] * 2)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ArrayFormatError, match="version"):
            read_array(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.nfsc"
        write_array(path, np.ones((4, 4), dtype=np.complex64), [(0.0, 1.0)] * 2)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ArrayFormatError, match="truncated payload"):
            read_array(path)
        # The fixed fields, the extents and the axes of a rank-2 header end at 16, 32 and 64 bytes.
        for end in (15, 31, 63):
            path.write_bytes(raw[:end])
            with pytest.raises(ArrayFormatError, match="^truncated header$"):
                read_array(path)

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "m.nfsc"
        write_array(path, np.ones((4, 4), dtype=np.complex64), [(0.0, 1.0)] * 2)
        old = path.read_bytes()

        class FailsAfterHeader:
            """A file whose second write (the payload) fails, as on a full disk."""

            def __init__(self, *args):
                self.fh = open(*args)
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli_io, "open", FailsAfterHeader, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_array(path, np.zeros((8, 8), dtype=np.complex64), [(0.0, 1.0)] * 2)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.nfsc"]

    @pytest.mark.parametrize("value", [1e39, np.inf, 1j * np.nan], ids=["beyond-float32", "inf", "nan"])
    def test_non_finite_values_rejected_before_the_file_is_opened(self, tmp_path, value):
        path = tmp_path / "m.nfsc"
        write_array(path, np.ones((4, 4), dtype=np.complex64), [(0.0, 1.0)] * 2)
        old = path.read_bytes()
        data = np.ones((4, 4), dtype=np.complex128)
        data[1, 2] = value
        data[2, 1] = -value  # opposite infinities, whose sum is NaN
        with pytest.raises(ArrayFormatError, match="^m.nfsc: values not finite in complex64$"):
            write_array(path, data, [(0.0, 1.0)] * 2)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.nfsc"]

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "bad.nfsc"
        write_array(path, np.ones((2, 2), dtype=np.complex64), [(0.0, 1.0)] * 2)
        raw = bytearray(path.read_bytes())
        raw[8] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ArrayFormatError, match="dtype"):
            read_array(path)
        raw[8] = 0
        for ndim in (0, 5):
            raw[12] = ndim
            path.write_bytes(bytes(raw))
            with pytest.raises(ArrayFormatError, match=f"^unsupported dimension count {ndim}$"):
                read_array(path)

    def test_rank_limit(self, tmp_path):
        with pytest.raises(ArrayFormatError, match="rank"):
            write_array(tmp_path / "x.nfsc", np.zeros((2, 2, 2, 2, 2), dtype=np.complex64), [(0.0, 1.0)] * 5)
        with pytest.raises(ArrayFormatError, match="^axes metadata must match array rank$"):
            write_array(tmp_path / "x.nfsc", np.zeros((2, 2), dtype=np.complex64), [(0.0, 1.0)])
        assert not (tmp_path / "x.nfsc").exists()

    def test_extent_overflow_rejected(self, tmp_path):
        import struct

        path = tmp_path / "huge.nfsc"
        header = b"NFSC" + struct.pack("<III", 1, 0, 1) + struct.pack("<Q", 1 << 40)
        header += struct.pack("<dd", 0.0, 1.0)
        path.write_bytes(header)
        with pytest.raises(ArrayFormatError, match="extent overflow"):
            read_array(path)
        path.write_bytes(b"NFSC" + struct.pack("<III", 1, 0, 1) + struct.pack("<Q", 0) + struct.pack("<dd", 0.0, 1.0))
        with pytest.raises(ArrayFormatError, match="^zero extent$"):
            read_array(path)


class TestExportDbImage:
    def grid2(self, rows, cols):
        return ImageGrid((GridAxis(0.0, 1.0, rows), GridAxis(0.0, 1.0, cols)))

    def test_pixel_mapping(self, tmp_path):
        vals = np.array([[1.0, 10 ** (-30 / 20), 10 ** (-60 / 20), 1e-6]], dtype=complex)
        img = ComplexImage(vals, self.grid2(1, 4))
        pgm, csv = export_db_image(img, -60.0, tmp_path / "img")
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n4 1\n255\n")
        pixels = list(raw[len(b"P5\n4 1\n255\n"):])
        assert pixels[0] == 255  # peak
        assert pixels[1] == 128  # -30 dB with -60 floor: round(127.5) half-up
        assert pixels[2] == 0  # exactly at floor
        assert pixels[3] == 0  # clamped below floor
        first_row = csv.read_text().splitlines()[0].split(",")
        assert float(first_row[0]) == pytest.approx(0.0)
        assert float(first_row[1]) == pytest.approx(-30.0, abs=1e-5)

    def test_csv_is_the_bytes_of_savetxt(self, tmp_path, monkeypatch):
        # The floor, the peak, a negative zero, two exact %.6f ties (k/128)
        # and decimal halves that round to either side.
        db = np.array([[-60.0, 0.0, -0.0, -0.0078125],
                       [-0.0234375, -12.3456785, -59.9999995, -5e-7],
                       [-1.0000005, -4.4999995, -0.0000004999, -33.3333335]])
        monkeypatch.setattr(cli_io, "image_to_db", lambda image, floor_db: db.copy())
        img = ComplexImage(np.ones(db.shape, dtype=complex), self.grid2(*db.shape))
        _, csv = export_db_image(img, -60.0, tmp_path / "img")
        expected = io.BytesIO()
        np.savetxt(expected, db, fmt="%.6f", delimiter=",")
        assert csv.read_bytes() == expected.getvalue()
        assert csv.read_text().splitlines()[0] == "-60.000000,0.000000,-0.000000,-0.007812"

    def test_3d_requires_slice(self, tmp_path):
        # A volume is exported as its maximum projection along height.
        vals = np.full((3, 4, 5), 1e-3, dtype=complex)
        vals[1, 2, 4] = 1.0
        vol = ComplexImage(vals, ImageGrid((GridAxis(0, 1, 3), GridAxis(0, 1, 4), GridAxis(0, 1, 5))))
        pgm, csv = export_db_image(vol, -80.0, tmp_path / "v")
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(raw[len(b"P5\n4 3\n255\n"):], dtype=np.uint8).reshape(3, 4)
        assert pixels[1, 2] == 255 and np.count_nonzero(pixels == 255) == 1
        assert len(csv.read_text().splitlines()) == 3


def volume_config(out_dir):
    return {
        "radar": {"f0": 9e9, "delta_f": 46875000.0, "num_freq": 64},
        "aperture": {"kind": "planar", "origin": [-0.105, 0.0, -0.105],
                     "azimuth_count": 8, "azimuth_spacing": 0.03,
                     "height_count": 8, "height_spacing": 0.03},
        "scene": {"targets": [{"position": [0.0, 2.0, 0.0], "amplitude": 1.0}],
                  "interferers": [{"delay_range": 1.9, "amplitude": 4.0}]},
        "grid": {"range": {"start": 1.8, "spacing": 0.025, "count": 13},
                 "azimuth": {"start": -0.075, "spacing": 0.025, "count": 7},
                 "height": {"start": -0.075, "spacing": 0.025, "count": 7}},
        "solver": {"mu": 0.05, "rho": 0.5, "auto_weights": False},
        "oversample": 4,
        "output_dir": str(out_dir),
    }


class _ReadOpens:
    """Files opened for reading while a test records, seen by an audit hook.

    The hook sees every open of the process, whichever function makes it.
    Audit hooks cannot be removed, so it is added once and records only
    while `files` is a list.
    """

    files = None
    installed = False

    @classmethod
    def hook(cls, event, args):
        if event != "open" or cls.files is None or not isinstance(args[0], (str, bytes, os.PathLike)):
            return
        path, mode, flags = args
        reading = "r" in mode if isinstance(mode, str) else (flags & os.O_ACCMODE) == os.O_RDONLY
        if reading:
            cls.files.append(Path(os.fsdecode(path)))


@pytest.fixture
def read_opens():
    if not _ReadOpens.installed:
        sys.addaudithook(_ReadOpens.hook)
        _ReadOpens.installed = True
    _ReadOpens.files = []
    try:
        yield _ReadOpens.files
    finally:
        _ReadOpens.files = None


class TestPipeline:
    def test_full_run_produces_manifest_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        manifest = run_pipeline(config)
        expected = {"echo", "profiles", "image", "target", "interference", "report"}
        assert expected <= set(manifest["artifacts"])
        for name in ("echo.nfsc", "profiles.nfsc", "image_raw.nfsc",
                     "target.nfsc", "interference.nfsc", "report.txt", "manifest.json"):
            assert (out / name).exists()
        # every array artifact reads back and matches the declared extents
        for entry in manifest["artifacts"].values():
            if entry["file"].endswith(".nfsc"):
                data, _ = read_array(out / entry["file"])
                assert list(data.shape) == entry["extents"]
        report = (out / "report.txt").read_text()
        assert "interference_residual_db" in report

    def test_rerun_is_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = parse_config(pipeline_config(out_a))
        cfg_b = parse_config(pipeline_config(out_b))
        run_pipeline(cfg_a, stages=["simulate", "compress", "image"])
        run_pipeline(cfg_b, stages=["simulate", "compress", "image"])
        for name in ("echo.nfsc", "profiles.nfsc", "image_raw.nfsc"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_suppress_stage_runs_alone_from_existing_image(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        run_pipeline(config, stages=["simulate", "compress", "image"])
        manifest = run_pipeline(config, stages=["suppress"])
        assert (out / "target.nfsc").exists()
        assert (out / "interference.nfsc").exists()
        assert (out / "decomposition.json").exists()
        record = json.loads((out / "decomposition.json").read_text())
        assert len(record["slices"]) == 1
        assert record["slices"][0]["iterations"] == record["iterations"]
        lines = (out / "objective_trace.csv").read_text().splitlines()
        assert lines[0] == "slice,iteration,objective,rank_c,nnz_x,rel_gap"
        assert lines[1].startswith("0,1,") and len(lines) == record["iterations"] + 1
        image, _ = read_array(out / "image_raw.nfsc")
        res = decompose(image, config.solver)
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[3]) for r in rows] == res.rank_c
        assert [int(r[4]) for r in rows] == res.nnz_x
        assert [float(r[5]) for r in rows] == pytest.approx(res.rel_gap, rel=1e-11, abs=0)
        assert record["slices"][0]["restarts"] == res.restarts
        assert record["slices"][0]["rel_gap"] == record["rel_gap"] == res.rel_gap[-1]
        assert not (out / "report.txt").exists()
        assert {"target", "interference"} <= set(manifest["artifacts"])

    def test_decomposition_record_counts_the_warm_steps(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        run_pipeline(config, stages=["simulate", "compress", "image", "suppress"])
        record = json.loads((out / "decomposition.json").read_text())
        image, _ = read_array(out / "image_raw.nfsc")
        res = decompose(image, config.solver)
        assert record["slices"][0]["warm_steps"] == record["warm_steps"] == res.warm_steps > 0
        assert record["slices"][0]["iterations"] == res.iterations_run
        lines = (out / "objective_trace.csv").read_text().splitlines()
        assert len(lines) == res.iterations_run + 1  # the warm steps are not traced

    def test_missing_upstream_artifact_named(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        with pytest.raises(PipelineError, match="echo.nfsc.*simulate"):
            run_pipeline(config, stages=["compress"])

    def test_stage_refuses_artifacts_of_another_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(parse_config(pipeline_config(out)), stages=["simulate", "compress", "image", "suppress"])
        manifest = (out / "manifest.json").read_bytes()
        other = pipeline_config(out)
        other["solver"]["mu"] = 0.5
        with pytest.raises(PipelineError, match="image_raw.nfsc.*not made under this config.*image"):
            run_pipeline(parse_config(other), stages=["evaluate"])
        cfg_path = tmp_path / "other.json"
        cfg_path.write_text(json.dumps(other))
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        assert "not made under this config" in capsys.readouterr().err
        assert not (out / "report.txt").exists()
        assert (out / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("manifest", [
        [],
        "not json {",
        {"artifacts": {"echo": "echo.nfsc"}},
        {"artifacts": {"echo": {"file": 3}}},
        {"artifacts": ["echo.nfsc"]},
    ], ids=["list", "not-json", "entry-not-object", "file-not-str", "artifacts-not-object"])
    def test_malformed_manifest_trusts_no_artifact(self, tmp_path, capsys, manifest):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config(out)))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        if isinstance(manifest, dict):
            manifest["config_hash"] = json.loads((out / "manifest.json").read_text())["config_hash"]
        (out / "manifest.json").write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert main(["compress", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "echo.nfsc' was not made under this config" in err and "Traceback" not in err
        assert main(["simulate", "--config", str(cfg_path)]) == 0  # a rerun repairs the run
        assert main(["compress", "--config", str(cfg_path)]) == 0

    def test_stage_refuses_upstream_bytes_another_config_rewrote(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = pipeline_config(out)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        a_path.write_text(json.dumps(cfg))
        cfg["solver"]["mu"] = 0.03
        cfg["guard_cells"] = 1000
        b_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(a_path)]) == 0
        # B rewrites every stage file, then fails at evaluate: the manifest keeps A's entries.
        assert main(["pipeline", "--config", str(b_path)]) == 1
        assert json.loads((out / "manifest.json").read_text())["config_hash"] == load_config(a_path).config_hash
        capsys.readouterr()
        assert main(["evaluate", "--config", str(a_path)]) == 1
        err = capsys.readouterr().err
        assert "'target.nfsc' differs" in err and "run stage 'suppress' again" in err
        assert main(["pipeline", "--config", str(a_path), "--stages", "suppress,evaluate"]) == 0

    def test_stage_inputs_are_read_once(self, tmp_path, read_opens):
        out = tmp_path / "out"
        run_pipeline(parse_config(pipeline_config(out)))
        # The manifest is read to learn which artifacts to trust; it is not a stage input.
        artifacts = [p.name for p in read_opens if p.parent == out and p.name != "manifest.json"]
        assert sorted(artifacts) == sorted(
            ["echo.nfsc", "profiles.nfsc", "image_raw.nfsc", "image_raw.nfsc", "target.nfsc"])

    def test_manifest_digests_are_the_file_digests(self, tmp_path):
        # Run directories made before the digests came from the written
        # arrays stay valid only if the two agree byte for byte.
        out = tmp_path / "out"
        manifest = run_pipeline(parse_config(pipeline_config(out)))
        assert len(manifest["artifacts"]) == 6
        for entry in manifest["artifacts"].values():
            assert entry["sha256"] == hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert cli_io.write_array(tmp_path / "a.nfsc", np.arange(3) + 1j, [(0.5, 0.25)]) == \
            hashlib.sha256((tmp_path / "a.nfsc").read_bytes()).hexdigest()

    def test_truncated_upstream_file_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config(out)))
        assert main(["pipeline", "--config", str(cfg_path), "--stages", "simulate,compress"]) == 0
        profiles = out / "profiles.nfsc"
        profiles.write_bytes(profiles.read_bytes()[:-8])
        assert main(["image", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "'profiles.nfsc' differs" in err and "run stage 'compress' again" in err
        assert not (out / "image_raw.nfsc").exists()

    def test_full_run_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(parse_config(pipeline_config(out)))
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "decomposition.json", "echo.nfsc", "image_raw.nfsc", "image_raw_db.csv", "image_raw_db.pgm",
            "interference.nfsc", "interference_db.csv", "interference_db.pgm", "manifest.json",
            "objective_trace.csv", "profiles.nfsc", "reference.nfsc", "report.csv", "report.txt",
            "target.nfsc", "target_db.csv", "target_db.pgm", ".lock",
        ])

    def test_unknown_stage_rejected(self, tmp_path):
        config = parse_config(pipeline_config(tmp_path / "out"))
        with pytest.raises(PipelineError, match="unknown stage"):
            run_pipeline(config, stages=["simulate", "imagine"])

    def test_lockfile_blocks_concurrent_writers(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = parse_config(pipeline_config(out))
        with open(out / ".lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            with pytest.raises(PipelineError, match="locked"):
                run_pipeline(config, stages=["simulate"])
        run_pipeline(config, stages=["simulate"])
        assert (out / ".lock").read_bytes() == b""

    def test_stale_lockfile_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("")  # left behind by a killed run
        run_pipeline(parse_config(pipeline_config(out)), stages=["simulate"])
        assert (out / "echo.nfsc").exists()
        assert (out / ".lock").read_bytes() == b""

    def test_lock_of_a_killed_holder_is_released(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = parse_config(pipeline_config(out))
        holder = (
            "import sys, time; from pathlib import Path; from nfsar import cli_io\n"
            "with cli_io._output_lock(Path(sys.argv[1])):\n"
            "    print('held', flush=True)\n"
            "    time.sleep(600)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen([sys.executable, "-c", holder, str(out)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "held\n"
            with pytest.raises(PipelineError, match="locked"):
                run_pipeline(config, stages=["simulate"])
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        run_pipeline(config, stages=["simulate"])
        assert (out / "echo.nfsc").exists()

    def test_non_finite_metric_fails_evaluate(self, tmp_path, capsys, monkeypatch):
        def zero_target(image, config):
            target, interference, results = decompose_image(image, config)
            return ComplexImage(np.zeros_like(target.values), target.grid), interference, results

        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        monkeypatch.setattr(cli_io, "decompose_image", zero_target)
        run_pipeline(config, stages=["simulate", "compress", "image", "suppress"])
        monkeypatch.undo()
        assert not np.any(read_array(out / "target.nfsc")[0])
        with np.errstate(divide="ignore"), pytest.raises(PipelineError, match="sinr_gain_db is not finite"):
            run_pipeline(config, stages=["evaluate"])
        assert not (out / "report.txt").exists()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config(out)))
        with np.errstate(divide="ignore"):
            assert main(["evaluate", "--config", str(cfg_path)]) == 1
        assert "sinr_gain_db is not finite" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_non_finite_objective_trace_fails_suppress_before_writing(self, tmp_path, capsys, monkeypatch):
        def overflowing_trace(image, config):
            target, interference, results = decompose_image(image, config)
            results[0].objective_trace[-1] = np.inf
            return target, interference, results

        out = tmp_path / "out"
        config = parse_config(pipeline_config(out))
        run_pipeline(config, stages=["simulate", "compress", "image"])
        before = sorted(p.name for p in out.iterdir())
        monkeypatch.setattr(cli_io, "decompose_image", overflowing_trace)
        with pytest.raises(PipelineError, match="objective_trace is not finite"):
            run_pipeline(config, stages=["suppress"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config(out)))
        assert main(["suppress", "--config", str(cfg_path)]) == 1
        assert "objective_trace is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    def test_3d_pipeline_paths(self, tmp_path):
        out = tmp_path / "out3"
        config = parse_config(volume_config(out))
        run_pipeline(config)
        data, _ = read_array(out / "target.nfsc")
        assert data.shape == (13, 7, 7)
        assert (out / "target_db.pgm").exists()
        assert (out / "report.txt").exists()

    @pytest.mark.parametrize("auto_weights", [False, True], ids=["fixed-weights", "auto-weights"])
    def test_3d_per_slice_run_records_every_slice(self, tmp_path, auto_weights):
        out = tmp_path / "out3"
        cfg = volume_config(out)
        if auto_weights:
            cfg["solver"] = {"auto_weights": True}
        cfg["solver"]["per_slice_3d"] = True
        cfg_path = tmp_path / "cfg3.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path), "--stages", "simulate,compress,image,suppress"]) == 0
        record = json.loads((out / "decomposition.json").read_text())
        slices = record["slices"]
        assert len(slices) == 7
        assert "mu" not in record and "rho" not in record
        assert record["iterations"] == sum(s["iterations"] for s in slices)
        assert record["restarts"] == sum(s["restarts"] for s in slices)
        assert record["warm_steps"] == sum(s["warm_steps"] for s in slices)
        assert record["converged"] == all(s["converged"] for s in slices)
        assert record["residual_norm"] == pytest.approx(np.sqrt(sum(s["residual_norm"] ** 2 for s in slices)))
        for s in slices:
            assert set(s) == {"mu", "rho", "iterations", "warm_steps", "converged", "residual_norm", "restarts",
                              "rel_gap"}
        weights = {(s["mu"], s["rho"]) for s in slices}
        assert len(weights) > 1 if auto_weights else weights == {(0.05, 0.5)}
        assert record["rel_gap"] == max(s["rel_gap"] for s in slices)
        lines = (out / "objective_trace.csv").read_text().splitlines()
        assert lines[0] == "slice,iteration,objective,rank_c,nnz_x,rel_gap"
        rows = [line.split(",") for line in lines[1:]]
        for k, s in enumerate(slices):
            iters = [int(r[1]) for r in rows if int(r[0]) == k]
            assert iters == list(range(1, s["iterations"] + 1))
        assert len(rows) == record["iterations"]

    def test_seed_changes_noise_artifacts(self, tmp_path):
        cfg = pipeline_config(tmp_path / "s1")
        cfg["scene"]["noise_sigma"] = 0.1
        a = parse_config(cfg)
        run_pipeline(a, stages=["simulate"])
        cfg2 = dict(cfg, output_dir=str(tmp_path / "s2"), seed=5)
        b = parse_config(cfg2)
        run_pipeline(b, stages=["simulate"])
        da, _ = read_array(tmp_path / "s1" / "echo.nfsc")
        db, _ = read_array(tmp_path / "s2" / "echo.nfsc")
        assert not np.array_equal(da, db)
        assert a.config_hash != b.config_hash


class TestBackgroundPass:
    """evaluate's background is imaged in the image stage's back-projection
    pass when one run holds both stages, and by evaluate when it runs alone."""

    def test_single_stage_calls_write_the_bytes_of_one_pipeline_run(self, tmp_path):
        config = str(CONFIGS / "pipeline2d.json")
        for stage in cli_io.STAGE_ORDER:
            assert main([stage, "--config", config, "--out", str(tmp_path / "stages"), "--seed", "1"]) == 0
        assert main(["pipeline", "--config", config, "--out", str(tmp_path / "run"), "--seed", "1"]) == 0
        files = sorted(p.name for p in (tmp_path / "run").iterdir() if p.name != ".lock")
        assert len(files) == 17
        assert sorted(p.name for p in (tmp_path / "stages").iterdir() if p.name != ".lock") == files
        for name in files:
            assert (tmp_path / "stages" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    @staticmethod
    def count_calls(monkeypatch):
        """Record the set count of each back-projection pass and count echo syntheses."""
        passes, echoes = [], []
        backproject, synthesize = cli_io._backproject, cli_io.synthesize_echo

        def counting_backproject(sets, grid):
            passes.append(len(sets))
            return backproject(sets, grid)

        def counting_synthesize(*args, **kwargs):
            echoes.append(args[2])
            return synthesize(*args, **kwargs)

        for module in (imaging, cli_io):
            monkeypatch.setattr(module, "_backproject", counting_backproject)
        monkeypatch.setattr(cli_io, "synthesize_echo", counting_synthesize)
        return passes, echoes

    def test_full_run_images_both_sets_in_one_pass(self, tmp_path, monkeypatch):
        passes, echoes = self.count_calls(monkeypatch)
        run_pipeline(parse_config(pipeline_config(tmp_path / "out")))
        assert passes == [2]
        assert [len(scene.targets) for scene in echoes] == [1, 0]

    def test_evaluate_alone_images_its_background_in_a_one_set_pass(self, tmp_path, monkeypatch):
        config = parse_config(pipeline_config(tmp_path / "out"))
        run_pipeline(config, ["simulate", "compress", "image", "suppress"])
        passes, echoes = self.count_calls(monkeypatch)
        run_pipeline(config, ["evaluate"])
        assert passes == [1]
        assert [len(scene.targets) for scene in echoes] == [0]

    def test_image_without_evaluate_makes_no_background(self, tmp_path, monkeypatch):
        passes, echoes = self.count_calls(monkeypatch)
        run_pipeline(parse_config(pipeline_config(tmp_path / "out")), ["simulate", "compress", "image"])
        assert passes == [1] and len(echoes) == 1

    def test_out_of_swath_voxels_warn_once_per_run(self, tmp_path):
        # The grid straddles the swath's far end, c / (2 * delta_f) = 3.198 m.
        cfg = pipeline_config(tmp_path / "out")
        cfg["grid"]["range"]["start"] = 3.0
        cfg["scene"]["targets"][0]["position"] = [0.0, 3.1, 0.0]
        cfg["scene"]["interferers"][0]["delay_range"] = 3.05
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_pipeline(parse_config(cfg))
        swath = [str(w.message) for w in caught if "outside the swath" in str(w.message)]
        assert len(swath) == 1 and not swath[0].startswith("0 ")


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(pipeline_config(tmp_path / "out")))
        return path

    def test_pipeline_verb(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["pipeline", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report.txt").exists()

    def test_stage_verbs_and_out_override(self, tmp_path):
        path = self.write_config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["simulate", "--config", str(path), "--out", str(alt)]) == 0
        assert (alt / "echo.nfsc").exists()
        assert main(["compress", "--config", str(path), "--out", str(alt)]) == 0
        assert main(["image", "--config", str(path), "--out", str(alt)]) == 0
        assert (alt / "image_raw_db.pgm").exists()

    def test_stages_flag_subsets(self, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["pipeline", "--config", str(path), "--stages", "simulate,compress"]) == 0
        assert (tmp_path / "out" / "profiles.nfsc").exists()
        assert not (tmp_path / "out" / "image_raw.nfsc").exists()

    def test_missing_upstream_fails_nonzero(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["suppress", "--config", str(path)]) == 1
        assert "missing upstream artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("make_config, dropped_axis, message", [
        (volume_config, "height", "2D imaging grid requires a linear aperture"),
        (pipeline_config, "azimuth", "imaging needs a 2D or 3D grid"),
    ], ids=["2d-grid-planar-aperture", "1d-grid"])
    def test_grid_aperture_pairing_checked_at_load(self, tmp_path, capsys, make_config, dropped_axis, message):
        cfg = make_config(tmp_path / "out")
        del cfg["grid"][dropped_axis]
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["scene"]["noise_sigma"] = 0.2
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--seed", "3"]) == 0
        a, _ = read_array(tmp_path / "out" / "echo.nfsc")
        assert main(["simulate", "--config", str(path), "--seed", "4"]) == 0
        b, _ = read_array(tmp_path / "out" / "echo.nfsc")
        assert not np.array_equal(a, b)

    def test_empty_output_dir_rejected_before_anything_is_written(self, tmp_path, monkeypatch, capsys):
        path = self.write_config(tmp_path)
        json_path = tmp_path / "empty.json"
        json_path.write_text(json.dumps(dict(json.loads(path.read_text()), output_dir="")))
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        for argv in (["simulate", "--config", str(path), "--out", ""], ["simulate", "--config", str(json_path)]):
            assert main(argv) == 2
            assert "config error: output_dir: must be a non-empty path" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    def test_target_outside_the_grid_refused_before_any_stage(self, tmp_path, capsys):
        cfg = pipeline_config(tmp_path / "out")
        cfg["scene"]["targets"].append({"position": [0.5, 2.0, 0.0]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert ("config error: scene.targets[1].position: target position (0.5, 2.0, 0.0) "
                "lies outside the image grid\n") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # Only evaluate places targets on the grid.
        assert main(["pipeline", "--config", str(path), "--stages", "simulate,compress,image"]) == 0

    def test_negative_seed_rejected_at_load(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 2
        assert "seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        cfg = json.loads(path.read_text())
        cfg["seed"] = -1
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error: seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_stage_list_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        for stages in (",", ""):
            assert main(["pipeline", "--config", str(path), "--stages", stages]) == 1
            assert "no stage to run" in capsys.readouterr().err
        with pytest.raises(PipelineError, match="no stage to run"):
            run_pipeline(load_config(path), [])
        assert not (tmp_path / "out").exists()

    def test_fixed_weights_need_mu_and_rho_at_load(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["solver"] = {"auto_weights": False, "mu": 0.02}
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "solver.auto_weights: mu and rho must both be set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stages, stage", [(None, "image"), ("suppress", "suppress"),
                                               ("simulate,compress,evaluate", "evaluate")])
    def test_grid_required_before_anything_is_written(self, tmp_path, capsys, stages, stage):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg["grid"]
        path.write_text(json.dumps(cfg))
        argv = ["pipeline", "--config", str(path)] + (["--stages", stages] if stages else [])
        assert main(argv) == 2
        assert f"config error: grid: required for the {stage} stage" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_evaluate_needs_a_target_before_anything_is_written(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["scene"]["targets"] = []
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 1
        assert "evaluate stage needs at least one target" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["pipeline", "--config", str(path), "--stages", "simulate,compress,image,suppress"]) == 0

    def test_echo_beyond_float32_range_fails_before_it_is_written(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = json.loads(path.read_text())
        del cfg["saturation"]
        cfg["scene"]["targets"][0]["amplitude"] = 1e39
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path), "--stages", "simulate,compress,image"]) == 1
        assert "echo.nfsc: values not finite in complex64" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_floor_db_override_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["pipeline", "--config", str(path), "--floor-db", "5"]) == 2
        assert "floor_db" in capsys.readouterr().err
