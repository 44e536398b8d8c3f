"""Configuration, persistence formats, and the staged processing pipeline.

Configs are JSON; arrays travel in a small binary format ("NFSC") holding
interleaved float32 complex samples plus per-axis start/spacing metadata.
The pipeline runs simulate -> compress -> image -> suppress -> evaluate,
with every stage reading its inputs from files so stages can be re-run in
isolation.  A manifest records the config hash, the seed and six artifacts:
echo, profiles, image, target, interference and report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import struct
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .core_model import (
    Aperture,
    EchoData,
    Interferer,
    PointTarget,
    RadarParams,
    Saturation,
    Scene,
    _require_budget,
    _require_instance,
    _require_int,
    _require_real,
    apply_saturation,
    synthesize_echo,
)
from .evaluation import _grid_index, background_subtract, suppression_metrics
from .imaging import (
    AXIS_NAMES,
    ComplexImage,
    GridAxis,
    ImageGrid,
    RangeProfileSet,
    _backproject,
    _require_pairing,
    backproject_2d,
    backproject_3d,
    image_to_db,
    range_compress,
)
from .suppression import SolverConfig, decompose_image

MAGIC = b"NFSC"
FORMAT_VERSION = 1
DTYPE_COMPLEX64 = 0
MAX_DIMS = 4
MAX_TOTAL_ELEMENTS = 1 << 33

ECHO_FILE = "echo.nfsc"
PROFILES_FILE = "profiles.nfsc"
IMAGE_FILE = "image_raw.nfsc"
TARGET_FILE = "target.nfsc"
INTERFERENCE_FILE = "interference.nfsc"
REFERENCE_FILE = "reference.nfsc"
REPORT_FILE = "report.txt"
MANIFEST_FILE = "manifest.json"

# The stage that writes each array file a later stage reads.
_PRODUCERS = {ECHO_FILE: "simulate", PROFILES_FILE: "compress", IMAGE_FILE: "image", TARGET_FILE: "suppress"}


class ConfigError(ValueError):
    """Configuration parse or validation failure, naming the field path."""


class ArrayFormatError(ValueError):
    """Malformed or unsupported array file."""


class PipelineError(RuntimeError):
    """Stage orchestration failure (missing artifacts, locked output, ...)."""


# ---------------------------------------------------------------------------
# binary complex-array format


@contextlib.contextmanager
def _replacing(path):
    """Open a temp file beside path for writing; on success rename it onto path.

    The rename is atomic, so a write that fails or is killed midway leaves
    the old file (or none), never part of a new one.  A failed write removes
    its temp file.  No fsync: this guards against crashed runs, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header(arr: np.ndarray, axes) -> bytes:
    header = MAGIC
    header += struct.pack("<III", FORMAT_VERSION, DTYPE_COMPLEX64, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    for start, spacing in axes:
        header += struct.pack("<dd", float(start), float(spacing))
    return header


def _encoded_sha256(arr: np.ndarray, axes) -> str:
    """sha256 of the file that holds this C-contiguous complex64 array."""
    digest = hashlib.sha256(_header(arr, axes))
    digest.update(arr)
    return digest.hexdigest()


def write_array(path, data, axes: Sequence[tuple[float, float]]) -> str:
    """Write a complex array with per-axis (start, spacing) metadata.

    Samples are stored as interleaved little-endian float32 pairs in C
    order (last axis fastest).  Reading back a complex64 array is bit-exact.
    Returns the sha256 of the file's bytes.  An array with a value that is
    not finite in complex64 (NaN, inf, or beyond float32 range) is refused
    before the file is opened.
    """
    # A value beyond float32 range casts to inf.  In complex128 a sum of finite
    # complex64 values cannot overflow, so it is finite exactly when every
    # value is; unlike isfinite it needs no array-sized temporary.
    with np.errstate(over="ignore", invalid="ignore"):
        arr = np.asarray(data, dtype=np.complex64, order="C")  # one pass, whatever data's order
        finite = np.isfinite(arr.sum(dtype=np.complex128))
    if arr.ndim < 1 or arr.ndim > MAX_DIMS:
        raise ArrayFormatError(f"array rank {arr.ndim} outside supported 1..{MAX_DIMS}")
    if not finite:
        raise ArrayFormatError(f"{Path(path).name}: values not finite in complex64")
    if len(axes) != arr.ndim:
        raise ArrayFormatError("axes metadata must match array rank")
    with _replacing(path) as fh:
        fh.write(_header(arr, axes))
        fh.write(arr.data)
    return _encoded_sha256(arr, axes)


def _write_text(path, text: str) -> str:
    """Write a text file atomically; returns the sha256 of its bytes."""
    data = text.encode()
    with _replacing(path) as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_array(path) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Read an array file; returns (complex64 array, per-axis (start, spacing))."""
    with open(path, "rb") as fh:  # one buffer, viewed in place: the payload is held once
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
    if len(raw) < 16:
        raise ArrayFormatError("truncated header")
    if raw[:4] != MAGIC:
        raise ArrayFormatError(f"bad magic {raw[:4]!r}; not an NFSC array file")
    version, dtype, ndim = struct.unpack_from("<III", raw, 4)
    if version != FORMAT_VERSION:
        raise ArrayFormatError(f"unsupported format version {version}")
    if dtype != DTYPE_COMPLEX64:
        raise ArrayFormatError(f"unknown dtype code {dtype}")
    if not 1 <= ndim <= MAX_DIMS:
        raise ArrayFormatError(f"unsupported dimension count {ndim}")
    offset = 16
    if len(raw) < offset + 8 * ndim:
        raise ArrayFormatError("truncated header")
    extents = struct.unpack_from(f"<{ndim}Q", raw, offset)
    offset += 8 * ndim
    total = 1
    for e in extents:
        if e < 1:
            raise ArrayFormatError("zero extent")
        total *= e
    if total > MAX_TOTAL_ELEMENTS:
        raise ArrayFormatError(f"extent overflow: {total} elements")
    if len(raw) < offset + 16 * ndim:
        raise ArrayFormatError("truncated header")
    axes = []
    for _ in range(ndim):
        start, spacing = struct.unpack_from("<dd", raw, offset)
        axes.append((start, spacing))
        offset += 16
    if len(raw) - offset != 8 * total:
        raise ArrayFormatError(
            f"truncated payload: expected {8 * total} bytes, found {len(raw) - offset}"
        )
    arr = np.frombuffer(raw, dtype="<c8", offset=offset).astype(np.complex64, copy=False)
    return arr.reshape(extents), axes


# ---------------------------------------------------------------------------
# JSON configuration


def _path_join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


_CONFIG_CLASSES = {
    cls.__name__: cls
    for cls in (RadarParams, Aperture, PointTarget, Interferer, Scene, Saturation, SolverConfig)
}


def _parse_grid(obj, path: str) -> ImageGrid:
    """Axes are keyed by name; a later axis needs every earlier one."""
    d = _as_dict(obj, path)
    for key in d:
        if key not in AXIS_NAMES:
            raise ConfigError(f"{_path_join(path, key)}: unknown configuration field")
    ndim = sum(d.get(name) is not None for name in AXIS_NAMES)
    for name in AXIS_NAMES[:ndim]:
        if d.get(name) is None:
            raise ConfigError(f"{_path_join(path, name)}: missing required field")
    axes = [_build(GridAxis, d[name], _path_join(path, name)) for name in AXIS_NAMES[:ndim]]
    try:
        return ImageGrid(tuple(axes))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_value(annotation: str, value, path: str):
    """Parse one JSON value according to a dataclass field's annotation string.

    Only structure is parsed here: objects, lists and the [real, imag] pair.
    A scalar goes to the dataclass unchanged; its __post_init__ checks it.
    """
    annotation = annotation.removesuffix(" | None")
    if annotation == "ImageGrid":
        return _parse_grid(value, path)
    if annotation in _CONFIG_CLASSES:
        return _build(_CONFIG_CLASSES[annotation], value, path)
    if annotation == "complex" and isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{path}: expected a number or [real, imag] pair")
        try:
            return complex(*(_require_real(f"{path}[{i}]", part) for i, part in enumerate(value)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    container, _, args = annotation.partition("[")
    if container not in ("list", "tuple", "Sequence"):
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    item = args.rstrip("]").split(",")[0].strip()
    items = [_parse_value(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    return tuple(items) if container == "tuple" else items


def _build(cls, obj, path: str):
    """Construct dataclass cls from a JSON object, field by field.

    Keys that are not fields of cls are rejected.  A null field takes its
    default; a required field that is absent or null is reported as missing.
    Each field's type and range rule lives in cls.__post_init__; its
    ValueError comes back as a ConfigError prefixed with the field path.
    """
    d = _as_dict(obj, path or "config")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in d:
        if key not in fields:
            raise ConfigError(f"{_path_join(path, key)}: unknown configuration field")
    kwargs = {}
    for name, f in fields.items():
        if d.get(name) is not None:
            kwargs[name] = _parse_value(f.type, d[name], _path_join(path, name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_path_join(path, name)}: missing required field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(_path_join(path, str(exc))) from exc


def _complex_pair(value) -> list[float]:
    if not isinstance(value, complex):
        raise TypeError(f"cannot hash config value {value!r}")
    return [value.real, value.imag]


@dataclasses.dataclass
class PipelineConfig:
    """Validated pipeline configuration mirroring the module-level types."""

    radar: RadarParams
    aperture: Aperture
    scene: Scene = dataclasses.field(default_factory=Scene)
    saturation: Saturation = dataclasses.field(default_factory=Saturation)
    grid: ImageGrid | None = None
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    oversample: int = 8
    seed: int = 0
    output_dir: str = "out"
    floor_db: float = -60.0
    guard_cells: int = 3

    def __post_init__(self):
        for name, cls in (("radar", RadarParams), ("aperture", Aperture), ("scene", Scene),
                          ("saturation", Saturation), ("solver", SolverConfig)):
            _require_instance(name, getattr(self, name), cls)
        self.oversample = _require_int("oversample", self.oversample, 1)
        _require_budget("oversample: profile matrix", self.oversample * self.radar.num_freq,
                        self.aperture.num_positions)
        self.seed = _require_int("seed", self.seed, 0)
        if not isinstance(self.output_dir, (str, os.PathLike)) or not os.fspath(self.output_dir):
            raise ValueError(f"output_dir: must be a non-empty path, got {self.output_dir!r}")
        self.floor_db = _require_real("floor_db", self.floor_db)
        if self.floor_db >= 0:
            raise ValueError("floor_db: must be < 0")
        self.guard_cells = _require_int("guard_cells", self.guard_cells, 0)
        if self.grid is not None:
            _require_pairing(_require_instance("grid", self.grid, ImageGrid), self.aperture, "grid: ")

    def canonical(self) -> dict:
        """Normalized config content for hashing.

        Excludes output_dir (not semantic) and the saturation fields the
        active mode ignores; grid axes are keyed by their AXIS_NAMES.
        """
        d = dataclasses.asdict(self)
        del d["output_dir"]
        active = {"hard_clip": "threshold", "polynomial": "coefficients"}.get(self.saturation.mode)
        d["saturation"] = {k: v for k, v in d["saturation"].items() if k in ("mode", active)}
        if d["grid"] is not None:
            d["grid"] = dict(zip(AXIS_NAMES, d["grid"]["axes"]))
        return d

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"), default=_complex_pair)
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(data: dict) -> PipelineConfig:
    """Validate a decoded JSON object into a PipelineConfig.

    Unknown keys are rejected at every level, numbers must be finite, and a
    null field takes its default (a required field given null is reported
    as missing).  Errors name the field path, e.g. ``radar.delta_f``.
    """
    return _build(PipelineConfig, data, "")


def load_config(path) -> PipelineConfig:
    """Load and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# dB-image export


def export_db_image(image: ComplexImage, floor_db: float, base_path) -> tuple[Path, Path]:
    """Write an 8-bit graymap and a CSV of dB magnitudes.

    [floor_db, 0] dB maps linearly onto [0, 255] with half-up rounding.  An
    image is exported as its maximum projection along height (a 2D image as is).
    """
    db = image_to_db(image, floor_db)
    db = db.reshape(*db.shape[:2], -1).max(axis=2)

    pixels = np.clip(np.floor(255.0 * (db - floor_db) / (0.0 - floor_db) + 0.5), 0, 255)
    pixels = pixels.astype(np.uint8)
    base = Path(base_path)
    pgm_path = base.with_suffix(".pgm")
    csv_path = base.with_suffix(".csv")
    h, w = pixels.shape
    with _replacing(pgm_path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())
    with _replacing(csv_path) as fh:  # np.savetxt's bytes, in one formatting call
        fh.write(((",".join(["%.6f"] * w) + "\n") * h % tuple(db.ravel().tolist())).encode())
    return pgm_path, csv_path


# ---------------------------------------------------------------------------
# pipeline stages


def _entry(filename: str, sha256: str, extents=None) -> dict:
    e = {"file": filename, "sha256": sha256}
    if extents is not None:
        e["extents"] = [int(v) for v in extents]
    return e


def _need(out: Path, artifacts: dict, filename: str) -> np.ndarray:
    """Read an upstream array that this config's runs produced.

    artifacts holds the entries made under the current config hash, carried
    over from the manifest or added by an earlier stage of this run.  The
    file is read once; the sha256 of what was read, in its file encoding,
    must match the entry: another config's run may have rewritten it without
    recording that in the manifest.  The digest covers the header's axes too.
    """
    path, producer = out / filename, _PRODUCERS[filename]
    if not path.exists():
        raise PipelineError(
            f"missing upstream artifact {filename!r} (run stage {producer!r} first)"
        )
    entry = next((e for e in artifacts.values() if e["file"] == filename), None)
    if entry is None:
        raise PipelineError(
            f"upstream artifact {filename!r} was not made under this config "
            f"(run stage {producer!r} first)"
        )
    try:
        data, axes = read_array(path)
        intact = _encoded_sha256(data, axes) == entry.get("sha256")
    except ArrayFormatError:
        intact = False
    if not intact:
        raise PipelineError(
            f"upstream artifact {filename!r} differs from the one stage {producer!r} recorded "
            f"(run stage {producer!r} again)"
        )
    return data


def _simulate_echo(config: PipelineConfig, scene: Scene) -> EchoData:
    echo = synthesize_echo(config.radar, config.aperture, scene, seed=config.seed)
    return apply_saturation(echo, config.saturation)


def _image_from_profiles(config: PipelineConfig, profiles: RangeProfileSet) -> ComplexImage:
    return (backproject_3d if config.grid.ndim == 3 else backproject_2d)(profiles, config.grid)


def _background_profiles(config: PipelineConfig) -> RangeProfileSet:
    """The scene without targets, on the same seed: its noise cancels in the reference."""
    scene = dataclasses.replace(config.scene, targets=[])
    return range_compress(_simulate_echo(config, scene), config.oversample)  # the echo's only reference


def stage_simulate(config: PipelineConfig, out: Path, artifacts: dict, held: dict) -> dict:
    echo = _simulate_echo(config, config.scene)
    axes = [(config.radar.f0, config.radar.delta_f), (0.0, 1.0)]
    sha256 = write_array(out / ECHO_FILE, echo.samples, axes)
    return {"echo": _entry(ECHO_FILE, sha256, echo.samples.shape)}


def stage_compress(config: PipelineConfig, out: Path, artifacts: dict, held: dict) -> dict:
    echo = EchoData(_need(out, artifacts, ECHO_FILE), config.radar, config.aperture)
    profiles = range_compress(echo, config.oversample)
    axes = [(0.0, profiles.tau_spacing), (0.0, 1.0)]
    sha256 = write_array(out / PROFILES_FILE, profiles.profiles, axes)
    return {"profiles": _entry(PROFILES_FILE, sha256, profiles.profiles.shape)}


def _load_profiles(config: PipelineConfig, out: Path, artifacts: dict) -> RangeProfileSet:
    data = _need(out, artifacts, PROFILES_FILE)
    return RangeProfileSet(data, config.oversample, config.radar, config.aperture)


def _write_image(out: Path, filename: str, image: ComplexImage) -> dict:
    """Write an image file; returns its manifest entry."""
    sha256 = write_array(out / filename, image.values, [(ax.start, ax.spacing) for ax in image.grid.axes])
    return _entry(filename, sha256, image.values.shape)


def stage_image(config: PipelineConfig, out: Path, artifacts: dict, held: dict) -> dict:
    if "evaluate" in held["stages"]:  # evaluate's background is imaged in the same pass
        background = _background_profiles(config)
        image, held["background"] = _backproject((_load_profiles(config, out, artifacts), background), config.grid)
    else:
        image = _image_from_profiles(config, _load_profiles(config, out, artifacts))
    entry = _write_image(out, IMAGE_FILE, image)
    export_db_image(image, config.floor_db, out / "image_raw_db")
    return {"image": entry}


def _load_image(config: PipelineConfig, out: Path, artifacts: dict, filename: str) -> ComplexImage:
    return ComplexImage(_need(out, artifacts, filename), config.grid)


def stage_suppress(config: PipelineConfig, out: Path, artifacts: dict, held: dict) -> dict:
    image = _load_image(config, out, artifacts, IMAGE_FILE)
    target, interference, results = decompose_image(image, config.solver)
    if not all(np.isfinite(r.objective_trace).all() for r in results):
        raise PipelineError("suppress: objective_trace is not finite (the objective overflows in the image's units)")
    entries = {"target": _write_image(out, TARGET_FILE, target),
               "interference": _write_image(out, INTERFERENCE_FILE, interference)}
    slices = [
        {
            "mu": r.mu,
            "rho": r.rho,
            "iterations": r.iterations_run,
            "warm_steps": r.warm_steps,
            "converged": r.converged,
            "residual_norm": r.residual_norm,
            "restarts": r.restarts,
            "rel_gap": r.rel_gap[-1],
        }
        for r in results
    ]
    record = {  # the slices' aggregates only: weights belong to a slice
        **{key: sum(s[key] for s in slices) for key in ("iterations", "warm_steps", "restarts")},
        "converged": all(s["converged"] for s in slices),
        "rel_gap": max(s["rel_gap"] for s in slices),
        "residual_norm": float(np.sqrt(sum(s["residual_norm"] ** 2 for s in slices))),
        "slices": slices,
    }
    _write_text(out / "decomposition.json", json.dumps(record, indent=2, sort_keys=True) + "\n")
    rows = [
        f"{k},{i},{val:.12e},{rank},{nnz},{gap:.12e}\n"
        for k, r in enumerate(results)
        for i, (val, rank, nnz, gap) in enumerate(zip(r.objective_trace, r.rank_c, r.nnz_x, r.rel_gap), start=1)
    ]
    _write_text(out / "objective_trace.csv", "slice,iteration,objective,rank_c,nnz_x,rel_gap\n" + "".join(rows))
    export_db_image(target, config.floor_db, out / "target_db")
    export_db_image(interference, config.floor_db, out / "interference_db")
    return entries


def stage_evaluate(config: PipelineConfig, out: Path, artifacts: dict, held: dict) -> dict:
    raw = _load_image(config, out, artifacts, IMAGE_FILE)
    suppressed = _load_image(config, out, artifacts, TARGET_FILE)
    if "background" not in held:  # no image stage in this run imaged it
        held["background"] = _image_from_profiles(config, _background_profiles(config))
    reference = background_subtract(raw, held.pop("background"))
    _write_image(out, REFERENCE_FILE, reference)

    try:
        report = suppression_metrics(
            raw,
            suppressed,
            reference,
            [t.position for t in config.scene.targets],
            guard_cells=config.guard_cells,
        )
    except ValueError as exc:
        raise PipelineError(f"evaluate: {exc}") from exc
    sha256 = _write_text(out / REPORT_FILE, report.to_text())
    header, row = report.to_csv_row()
    _write_text(out / "report.csv", header + "\n" + row + "\n")
    return {"report": _entry(REPORT_FILE, sha256)}


STAGE_FUNCS = {
    "simulate": stage_simulate,
    "compress": stage_compress,
    "image": stage_image,
    "suppress": stage_suppress,
    "evaluate": stage_evaluate,
}
STAGE_ORDER = tuple(STAGE_FUNCS)


@contextlib.contextmanager
def _output_lock(out: Path):
    """Exclusive lock so two pipelines cannot write one directory.

    The lock is an flock held on an open descriptor of <out>/.lock, so the
    OS releases it when the holding process exits, however it ends.  The
    empty file is never removed: a .lock left by a finished or killed run
    does not block later runs, and every run locks the same inode.
    """
    path = out / ".lock"
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory is locked by another run ({path})") from None
        yield
    finally:
        os.close(fd)


def _trusted_artifacts(manifest_path: Path, config_hash: str) -> dict:
    """The artifact entries of an existing manifest made under config_hash.

    A missing or unreadable manifest, one of another config, and one whose
    shape is not {"config_hash": ..., "artifacts": {name: {"file": str, ...}}}
    are all treated alike: none of their artifacts is trusted.
    """
    try:
        previous = json.loads(manifest_path.read_bytes())
    except (FileNotFoundError, ValueError):
        return {}
    if not isinstance(previous, dict) or previous.get("config_hash") != config_hash:
        return {}
    artifacts = previous.get("artifacts", {})
    if not isinstance(artifacts, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("file"), str) for entry in artifacts.values()
    ):
        return {}
    return artifacts


def run_pipeline(config: PipelineConfig, stages: Sequence[str] | None = None) -> dict:
    """Run the requested stages in canonical order and update the manifest."""
    requested = list(STAGE_ORDER) if stages is None else list(stages)
    for name in requested:
        if name not in STAGE_FUNCS:
            raise PipelineError(f"unknown stage {name!r}")
    ordered = [s for s in STAGE_ORDER if s in requested]
    if not ordered:
        raise PipelineError("no stage to run")
    # What the stages need of the config is checked before anything is written.
    needs_grid = [s for s in ordered if s in ("image", "suppress", "evaluate")]
    if config.grid is None and needs_grid:
        raise ConfigError(f"grid: required for the {needs_grid[0]} stage")
    if "evaluate" in ordered:
        if not config.scene.targets:
            raise PipelineError("evaluate stage needs at least one target in the scene")
        for k, target in enumerate(config.scene.targets):
            try:
                _grid_index(config.grid, target.position)  # the rule suppression_metrics applies
            except ValueError as exc:
                raise ConfigError(f"scene.targets[{k}].position: {exc}") from exc

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / MANIFEST_FILE
    with _output_lock(out):
        artifacts = _trusted_artifacts(manifest_path, config.config_hash)
        held = {"stages": ordered}  # what one stage leaves in memory for a later one of this run
        for name in ordered:
            artifacts.update(STAGE_FUNCS[name](config, out, artifacts, held))
        manifest = {
            "format_version": FORMAT_VERSION,
            "config_hash": config.config_hash,
            "seed": config.seed,
            "artifacts": artifacts,
        }
        _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfsar",
        description="Near-field SAR interference simulation, imaging and suppression pipeline",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in STAGE_ORDER + ("pipeline",):
        p = sub.add_parser(verb, help=f"run the {verb} stage" if verb != "pipeline" else "run several stages")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="noise seed (overrides config)")
        p.add_argument("--floor-db", type=float, help="dB export floor (overrides config)")
        if verb == "pipeline":
            p.add_argument(
                "--stages",
                help="comma-separated subset of: " + ",".join(STAGE_ORDER),
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {"output_dir": args.out, "seed": args.seed, "floor_db": args.floor_db}
        try:
            config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if args.verb == "pipeline":
            stages = None
            if args.stages is not None:
                stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        else:
            stages = [args.verb]
        run_pipeline(config, stages)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ArrayFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
