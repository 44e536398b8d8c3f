"""Spans around the calls into nfsar's public functions, and the per-layer
metrics derived from them.

The tracer rebinds each wrapped function in every nfsar namespace that
holds it (the defining module, the package and the modules that imported
it by name), so a call made from inside the program is traced as well as a
call made by the benchmark.  Nothing under src/ is edited; `uninstall`
puts the original objects back.

A span is {name, start, end, parent, scene}; parent is the index of the
enclosing span or None.  Spans are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import nfsar
from nfsar import cli_io, core_model, evaluation, imaging, suppression

MODULES = (nfsar, core_model, imaging, suppression, evaluation, cli_io)

# (module, public function name, span name).  The span name's first dotted
# part is the layer the time is charged to.
WRAPPED = (
    (core_model, "synthesize_echo", "core_model.synthesize"),
    (core_model, "apply_saturation", "core_model.saturate"),
    (imaging, "range_compress", "imaging.compress"),
    (imaging, "backproject_2d", "imaging.backproject"),
    (imaging, "backproject_3d", "imaging.backproject"),
    (imaging, "image_to_db", "imaging.to_db"),
    (suppression, "decompose_volume", "suppression.decompose_volume"),
    (suppression, "decompose", "suppression.decompose"),
    (suppression, "update_target", "suppression.update_target"),
    (suppression, "update_interference", "suppression.update_interference"),
    (suppression, "objective", "suppression.objective"),
    (suppression, "default_params", "suppression.default_params"),
    (evaluation, "background_subtract", "evaluation.background_subtract"),
    (evaluation, "suppression_metrics", "evaluation.metrics"),
    (cli_io, "main", "cli_io.main"),
    (cli_io, "load_config", "cli_io.config"),
    (cli_io, "write_array", "cli_io.write"),
    (cli_io, "read_array", "cli_io.read"),
    (cli_io, "export_db_image", "cli_io.export"),
)

# numpy.linalg factorizations counted (and timed) while a solver span is
# open; a later solver may swap the SVD for an eigendecomposition.
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "qr")

LAYERS = ("core_model", "imaging", "suppression", "evaluation", "cli_io", "harness")


class Tracer:
    """In-memory span recorder; records only while a scene span is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._scene = None
        self._restore: list = []

    @contextmanager
    def scene(self, scene_id):
        self._scene = scene_id
        try:
            with self.span("harness.scene"):
                yield
        finally:
            self._scene = None

    @contextmanager
    def span(self, name):
        if self._scene is None:
            yield {}
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "scene": self._scene,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _in_solver(self) -> bool:
        return any(self.spans[i]["name"].startswith("suppression.") for i in self._stack)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if self._scene is not None:
                    _annotate(name, record, args, result)
                return result

        return wrapper

    def _wrap_factorization(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._in_solver():
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every wrapped function; `uninstall` undoes it."""
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for stage, fn in list(cli_io.STAGE_FUNCS.items()):
            self._restore.append((cli_io.STAGE_FUNCS, stage, fn))
            cli_io.STAGE_FUNCS[stage] = self._wrap(fn, f"cli_io.stage.{stage}")
        for attr in FACTORIZATIONS:
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap_factorization(original, f"suppression.linalg.{attr}"))

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()


def _annotate(name, record, args, result):
    """Attach the counts each layer boundary can see to its span."""
    if name == "core_model.synthesize":
        record["samples"] = int(result.samples.size)
    elif name == "imaging.backproject":
        profiles, grid = args[0], args[1]
        record["contributions"] = int(np.prod(grid.shape)) * int(profiles.aperture.num_positions)
    elif name == "suppression.decompose":
        record["iterations"] = int(result.iterations_run)
        record["shape"] = list(np.shape(args[0]))
    elif name in ("cli_io.write", "cli_io.read"):
        record["bytes"] = os.path.getsize(args[0])


def _duration(span) -> float:
    return span["end"] - span["start"]


def scene_metrics(spans: list[dict], scene_id, out_of_swath: int) -> dict:
    """Per-layer metrics of one scene, from the run's whole span list."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)
    mine = [i for i, s in enumerate(spans) if s["scene"] == scene_id]
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for i in mine:
        s = spans[i]
        total[s["name"]] = total.get(s["name"], 0.0) + _duration(s)
        self_time[s["name"].split(".")[0]] += _duration(s) - child_time[i]
        for key in ("samples", "contributions", "iterations", "bytes"):
            if key in s:
                count[f"{s['name']}.{key}"] = count.get(f"{s['name']}.{key}", 0) + s[key]

    root = mine[0]
    scene_s = _duration(spans[root])
    linalg = [spans[i] for i in mine if spans[i]["name"].startswith("suppression.linalg.")]
    shapes = [spans[i]["shape"] for i in mine if spans[i]["name"] == "suppression.decompose"]
    shape = shapes[0] if shapes else [0, 0]
    t = total.get
    m = {
        "core_model.synthesize_s": t("core_model.synthesize", 0.0),
        "core_model.saturate_s": t("core_model.saturate", 0.0),
        "core_model.echo_samples": count.get("core_model.synthesize.samples", 0),
        "imaging.compress_s": t("imaging.compress", 0.0),
        "imaging.backproject_s": t("imaging.backproject", 0.0),
        "imaging.backproject_contributions": count.get("imaging.backproject.contributions", 0),
        "imaging.out_of_swath": out_of_swath,
        "suppression.decompose_s": t("suppression.decompose", 0.0),
        "suppression.iterations": count.get("suppression.decompose.iterations", 0),
        "suppression.update_target_s": t("suppression.update_target", 0.0),
        "suppression.update_interference_s": t("suppression.update_interference", 0.0),
        "suppression.objective_s": t("suppression.objective", 0.0),
        "suppression.svd_calls": len(linalg),
        "suppression.svd_s": sum(_duration(s) for s in linalg),
        "suppression.matrix_rows": shape[0],
        "suppression.matrix_cols": shape[1],
        "evaluation.metrics_s": t("evaluation.metrics", 0.0),
        "evaluation.background_subtract_s": t("evaluation.background_subtract", 0.0),
        "cli_io.write_s": t("cli_io.write", 0.0),
        "cli_io.write_bytes": count.get("cli_io.write.bytes", 0),
        "cli_io.read_s": t("cli_io.read", 0.0),
        "cli_io.read_bytes": count.get("cli_io.read.bytes", 0),
        "cli_io.export_s": t("cli_io.export", 0.0),
        "cli_io.config_s": t("cli_io.config", 0.0),
    }
    contributions = m["imaging.backproject_contributions"]
    m["imaging.backproject_ns_per_contribution"] = (
        m["imaging.backproject_s"] * 1e9 / contributions if contributions else 0.0
    )
    iterations = m["suppression.iterations"]
    m["suppression.iter_ms"] = m["suppression.decompose_s"] * 1e3 / iterations if iterations else 0.0
    for stage in cli_io.STAGE_ORDER:
        m[f"cli_io.stage.{stage}_s"] = t(f"cli_io.stage.{stage}", 0.0)
    # main's wall minus its config load and stages: argument parsing, the
    # output lock and the manifest read/write.
    main_s = t("cli_io.main", 0.0)
    stage_sum = sum(m[f"cli_io.stage.{stage}_s"] for stage in cli_io.STAGE_ORDER)
    m["cli_io.overhead_s"] = main_s - stage_sum - m["cli_io.config_s"] if main_s else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.scene_s"] = scene_s
    m["trace.coverage"] = child_time[root] / scene_s if scene_s > 0 else 0.0
    m["trace.spans"] = len(mine)
    return m


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"), ("_db", "dB"),
                         ("_db_max", "dB"), ("_per_contribution", "ns"), ("coverage", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def median_metrics(per_scene: list[dict]) -> dict:
    keys = per_scene[0].keys()
    return {k: statistics.median(m[k] for m in per_scene) for k in keys}
