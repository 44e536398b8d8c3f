"""The benchmark's workloads: one scene each, driven through nfsar's public
API, and the correctness checks every scene's output must pass.

Every workload reads its scene from configs/<name>.json; the run's seed
replaces the config seed and so draws the receiver noise.  Within a run all
scenes use the same seed, which is what lets the checks demand outputs that
are bit-identical across scenes.

Calls go through module attributes (`imaging.range_compress(...)`) so the
tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

from nfsar import cli_io, core_model, evaluation, imaging, suppression

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def _hash_tree(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def _read_report(path: Path) -> dict[str, float]:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    return values


def _quality(residual_db: float, sinr_gain_db: float, peak_errors_db) -> dict[str, float]:
    return {
        "interference_residual_db": float(residual_db),
        "sinr_gain_db": float(sinr_gain_db),
        "target_peak_error_db_max": float(max(peak_errors_db)),
    }


def _cell_index(grid, position) -> tuple[int, ...]:
    coords = (position[1], position[0], position[2])[: grid.ndim]
    return tuple(int(round((c - ax.start) / ax.spacing)) for ax, c in zip(grid.axes, coords))


def _box_peak(mag, grid, position, search_cells=3):
    """Strongest cell within search_cells of a true position, and that position's cell."""
    truth = _cell_index(grid, position)
    box = tuple(slice(max(0, i - search_cells), i + search_cells + 1) for i in truth)
    local = np.unravel_index(np.argmax(mag[box]), mag[box].shape)
    return tuple(s.start + p for s, p in zip(box, local)), truth


def _grid_of(axes, shape):
    return imaging.ImageGrid(tuple(imaging.GridAxis(s, d, n) for (s, d), n in zip(axes, shape)))


def _misplaced_targets(mag, grid, targets, min_peak=0.0) -> list[str]:
    """Targets whose peak is not within 1 cell of the true cell, or not above min_peak."""
    failures = []
    for t in targets:
        peak, truth = _box_peak(mag, grid, t.position)
        if mag[peak] <= min_peak or max(abs(p - i) for p, i in zip(peak, truth)) > 1:
            failures.append(f"target {t.position} peaks at cell {peak} ({mag[peak]:.3g}), expected {truth}")
    return failures


def _local_maxima_3d(mag):
    """Strict 26-neighbourhood local maxima of a 3D magnitude, strongest first."""
    padded = np.pad(mag, 1, constant_values=-np.inf)
    nx, ny, nz = mag.shape
    is_max = mag > 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                is_max &= mag > padded[1 + dx:1 + dx + nx, 1 + dy:1 + dy + ny, 1 + dz:1 + dz + nz]
    coords = np.argwhere(is_max)
    return coords[np.argsort(-mag[is_max])]


class Workload:
    """A scene repeated by the run loop: `run` is timed, `check` is not."""

    name = ""
    stages: str | None = None  # CLI stage list; None for the in-memory chain

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.config_path = CONFIG_DIR / f"{self.name}.json"
        self.config = cli_io.load_config(self.config_path)
        self.config.seed = seed
        self.first_hashes = None
        self.quality = None

    def _out(self, scene_id: int) -> Path:
        return self.work_dir / f"scene{scene_id}"

    def run(self, scene_id: int):
        argv = ["pipeline", "--config", str(self.config_path), "--out", str(self._out(scene_id)),
                "--seed", str(self.seed)]
        if self.stages:
            argv += ["--stages", self.stages]
        return cli_io.main(argv)

    def check(self, scene_id: int, result, out_of_swath: int) -> list[str]:
        out = self._out(scene_id)
        try:
            return self._check(out, result, out_of_swath)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _same_as_first(self, out: Path) -> list[str]:
        hashes = _hash_tree(out)
        if self.first_hashes is None:
            self.first_hashes = hashes
            return []
        if hashes != self.first_hashes:
            differ = sorted(k for k in hashes.keys() | self.first_hashes.keys()
                            if hashes.get(k) != self.first_hashes.get(k))
            return [f"artifacts differ from the first scene: {', '.join(differ)}"]
        return []


class Pipeline2D(Workload):
    """Acceptance scenario 5's scene through the full five-stage CLI pipeline."""

    name = "pipeline2d"

    def _check(self, out, exit_code, out_of_swath):
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        failures = []
        report = _read_report(out / cli_io.REPORT_FILE)
        if not all(math.isfinite(v) for v in report.values()):
            failures.append(f"non-finite report value: {report}")
        self.quality = _quality(report["interference_residual_db"], report["sinr_gain_db"],
                                [v for k, v in report.items() if k.startswith("target_peak_error_db_")])
        target, axes = cli_io.read_array(out / cli_io.TARGET_FILE)
        failures += _misplaced_targets(np.abs(target), _grid_of(axes, target.shape), self.config.scene.targets)
        if self.quality["target_peak_error_db_max"] > 3.0:
            failures.append(f"target peak error {self.quality['target_peak_error_db_max']} dB > 3 dB")
        if self.quality["interference_residual_db"] > -20.0:
            failures.append(f"interference residual {self.quality['interference_residual_db']} dB > -20 dB")
        return failures + self._same_as_first(out)


class Image3DLarge(Workload):
    """Simulate, compress and image only: a large planar aperture and grid."""

    name = "image3d-large"
    stages = "simulate,compress,image"

    def _check(self, out, exit_code, out_of_swath):
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        failures = []
        image, axes = cli_io.read_array(out / cli_io.IMAGE_FILE)
        if not np.all(np.isfinite(image)):
            failures.append("image has non-finite voxels")
        # Unit-amplitude targets focus to a peak near 1 (images are
        # normalized by the number of scan positions); a defocused image
        # does not.
        failures += _misplaced_targets(np.abs(image), _grid_of(axes, image.shape),
                                       self.config.scene.targets, min_peak=0.5)
        if out_of_swath != 0:
            failures.append(f"{out_of_swath} voxel contributions fell outside the swath")
        return failures + self._same_as_first(out)


class Volume3D(Workload):
    """Acceptance scenario 6's ring in memory, whole-volume decomposition."""

    name = "volume3d"

    def _volume(self, scene):
        cfg = self.config
        echo = core_model.synthesize_echo(cfg.radar, cfg.aperture, scene, seed=cfg.seed)
        echo = core_model.apply_saturation(echo, cfg.saturation)
        profiles = imaging.range_compress(echo, cfg.oversample)
        return imaging.backproject_3d(profiles, cfg.grid)

    def run(self, scene_id: int):
        cfg = self.config
        raw = self._volume(cfg.scene)
        background = self._volume(core_model.Scene(
            targets=[], interferers=cfg.scene.interferers, noise_sigma=cfg.scene.noise_sigma))
        reference = evaluation.background_subtract(raw, background)
        target, _, _ = suppression.decompose_volume(raw, cfg.solver)
        report = evaluation.suppression_metrics(
            raw, target, reference, [t.position for t in cfg.scene.targets],
            guard_cells=cfg.guard_cells)
        return target, report

    def _check(self, out, result, out_of_swath):
        target, report = result
        values = list(report.target_peak_error_db) + [report.interference_residual_db, report.sinr_gain_db]
        failures = []
        if not all(math.isfinite(v) for v in values):
            failures.append(f"non-finite metric: {values}")
        self.quality = _quality(report.interference_residual_db, report.sinr_gain_db,
                                report.target_peak_error_db)
        ring = self.config.scene.targets
        top = _local_maxima_3d(np.abs(target.values))[: len(ring)]
        matched = {
            k
            for cell in top
            for k, t in enumerate(ring)
            if max(abs(int(c) - i) for c, i in zip(cell, _cell_index(target.grid, t.position))) <= 1
        }
        if len(top) < len(ring) or matched != set(range(len(ring))):
            failures.append(f"ring targets matched: {sorted(matched)} of {len(ring)}")
        if report.interference_residual_db > -15.0:
            failures.append(f"interference residual {report.interference_residual_db} dB > -15 dB")
        return failures


WORKLOADS = {w.name: w for w in (Pipeline2D, Volume3D, Image3DLarge)}
