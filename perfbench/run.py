"""nfsar benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload pipeline2d --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ./src.  One
process, one client, one scene at a time (closed loop).  Every scene's
output is checked; the last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics from a traced run (see
README.md).  A result file with the samples, the computed counts and the
environment is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 11
MIN_SCENES = 3
MIN_SCENES_TRACED = 4
SWATH_WARNING = re.compile(r"(\d+) of \d+ voxel contributions fell outside the swath")


def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def measure_setup(config_path: Path) -> list[float]:
    """Wall time of fresh processes that import nfsar and load the config."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), str(config_path)], env=_child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            # A blocking read ends the moment the probe reports; Popen.wait
            # with a timeout polls in steps of up to 50 ms.
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=60)
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return times


def single_thread_baseline(args) -> dict:
    """One untraced scene in a child process with OPENBLAS_NUM_THREADS=1."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--baseline"]
    proc = subprocess.run(cmd, env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"single-thread baseline exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_scenes(workload, seconds: float, tracer, min_scenes: int) -> list[dict]:
    """Closed loop: the next scene starts when the previous one is checked.

    Stops once min_scenes have run and another scene would end past
    `seconds`.  With a tracer, scenes alternate untraced and traced so the
    tracing overhead is measured under the same conditions.
    """
    scenes = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(scenes) >= min_scenes:
            per_scene = statistics.median(s["loop_s"] for s in scenes)
            if elapsed + per_scene > seconds:
                break
        scene_id = len(scenes)
        traced = tracer is not None and scene_id % 2 == 1
        record = {"id": scene_id, "traced": traced, "failures": []}
        workload.quality = None
        begin = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                if traced:
                    with tracer.scene(scene_id):
                        result = workload.run(scene_id)
                else:
                    result = workload.run(scene_id)
            except Exception:
                result = None
                record["failures"].append("exception: " + traceback.format_exc())
            record["scene_s"] = time.perf_counter() - wall0
            record["scene_cpu_s"] = time.process_time() - cpu0
        record["warnings"] = [str(w.message) for w in caught]
        record["out_of_swath"] = sum(
            int(m.group(1)) for m in (SWATH_WARNING.search(w) for w in record["warnings"]) if m)
        if result is not None:
            try:
                record["failures"] += workload.check(scene_id, result, record["out_of_swath"])
            except Exception:
                record["failures"].append("check raised: " + traceback.format_exc())
        record["quality"] = workload.quality
        record["loop_s"] = time.perf_counter() - begin
        scenes.append(record)
    return scenes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nfsar" / "__init__.py").is_file():
        print(f"error: no nfsar sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nfsar

    if Path(nfsar.__file__).resolve().parent != (SRC / "nfsar").resolve():
        print(f"error: imported nfsar from {nfsar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import envinfo
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    config_path = workloads.CONFIG_DIR / f"{args.workload}.json"
    setup = [] if args.baseline or args.trace else measure_setup(config_path)

    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=RESULTS) as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        if tracer is not None:
            tracer.install()
        try:
            scenes = run_scenes(workload, 0 if args.baseline else args.seconds, tracer,
                                1 if args.baseline else MIN_SCENES_TRACED if args.trace else MIN_SCENES)
        finally:
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for s in scenes if s["failures"])
    for s in scenes:
        for f in s["failures"]:
            print(f"scene {s['id']} FAILED: {f}", file=sys.stderr)
    untraced = [s for s in scenes if not s["traced"]]
    result = {"correct": failed == 0, "attempted": len(scenes), "failed": failed}

    if args.trace:
        traced = [s for s in scenes if s["traced"]]
        per_scene = [tracing.scene_metrics(tracer.spans, s["id"], s["out_of_swath"]) for s in traced]
        layer = tracing.median_metrics(per_scene)
        layer["trace.untraced_scene_s"] = statistics.median(s["scene_s"] for s in untraced)
        layer["trace.overhead_s"] = layer["trace.scene_s"] - layer["trace.untraced_scene_s"]
        if layer["trace.coverage"] < 0.95:
            print(f"warning: spans cover only {layer['trace.coverage']:.1%} of the scene's wall time",
                  file=sys.stderr)
        baseline = single_thread_baseline(args)
        result["attempted"] += baseline["attempted"]
        result["failed"] += baseline["failed"]
        result["correct"] = result["correct"] and baseline["correct"]
        layer["blas1.scene_s"] = baseline["metrics"]["scene_s"]["value"]
        layer["blas1.scene_cpu_s"] = baseline["metrics"]["scene_cpu_s"]["value"]
        samples = {k: len(traced) for k in layer}
        samples.update({"trace.untraced_scene_s": len(untraced), "blas1.scene_s": 1, "blas1.scene_cpu_s": 1})
    else:
        e2e = {
            "scene_s": statistics.median(s["scene_s"] for s in untraced),
            "scene_cpu_s": statistics.median(s["scene_cpu_s"] for s in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {"scene_s": len(untraced), "scene_cpu_s": len(untraced), "peak_rss_mb": 1}
        if setup:
            e2e["setup_s"] = statistics.median(setup)
            samples["setup_s"] = len(setup)
        # Suppression quality, where the workload evaluates it.  The residual
        # is negated so that every quality figure is positive.
        graded = [s["quality"] for s in scenes if s["quality"]]
        if graded:
            for name, key, sign in (("interference_rejection_db", "interference_residual_db", -1.0),
                                    ("sinr_gain_db", "sinr_gain_db", 1.0),
                                    ("target_peak_error_db_max", "target_peak_error_db_max", 1.0)):
                e2e[name] = sign * statistics.median(q[key] for q in graded)
                samples[name] = len(graded)
        layer = e2e
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}

    if not args.baseline:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": envinfo.record(),
            "result": result,
            "metrics": metrics,
            "samples": samples,
            "failed_ratio": result["failed"] / result["attempted"],
            "setup_samples_s": setup,
            "scenes": scenes,
        }
        stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        print_summary(record)

    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def print_summary(record: dict) -> None:
    """Human-readable lines before the result line: every metric with its unit."""
    scenes = record["scenes"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"scenes {len(scenes)}")
    for name, m in record["metrics"].items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']:6s} (n={record['samples'][name]})")
    print(f"{'failed_ratio':42s} {record['failed_ratio']:14.6g} {'ratio':6s} "
          f"(n={record['result']['attempted']})")
    env = record["environment"]
    print("# env " + json.dumps(env, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
