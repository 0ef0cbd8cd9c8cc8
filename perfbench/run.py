"""Run one whaledet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_cnn --seed 0 --seconds 50 --trace 0

Run from the root of a whaledet checkout; the package is imported from
``src/`` of that checkout.  The run builds its inputs from the seed three
times (``setup_s`` is the median), then repeats the workload's operation in
a closed loop with one client until ``--seconds`` have passed.  Every
operation's outputs are checked against the reference recorded from the
seed commit; a failed check counts the operation as failed.

With ``--trace 0`` the last line holds the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` operations alternate between untraced
and traced, and the last line holds the per-layer metrics, each per traced
operation, plus the tracing overhead.  Spans, per-operation timings and
machine facts are written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import SELF_TIME_LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
N_SETUPS = 3
# One BLAS thread, within the cap of nproc: on a shared 2-core host both
# workloads ran faster with one thread than with two, and with two each
# BLAS call also waits on a second core that anything else can hold up.
BLAS_THREADS = 1

# per-layer time metrics: "<layer>.s" totals, "<layer>.self_s" self times
LAYER_TOTALS = (
    "audio.load_wav", "audio.frame_windows", "spectrogram.stft_spectrogram",
    "spectrogram.to_image",
    "cnn.load_network", "cnn.extract_code", "cnn.conv_forward",
    "cnn.maxpool_forward", "cnn.fc_forward", "features.featurize_clips",
    "features.save_features", "features.load_features", "svm.train",
    "svm.predict",
)
SETUP_TOTALS = ("synth.build_experiment", "spectrogram.stft_spectrogram",
                "features.featurize_clips", "svm.train")
COUNTS = ("spectrogram.windows", "cnn.calls", "cnn.flop", "cnn.bytes",
          "features.rows", "svm.folds", "svm.coord_steps")


def pin_environment() -> tuple[int, str]:
    """Fix BLAS threads and pin the memory settings timing hangs on.

    Must run before numpy is imported.  Without fixed thresholds, glibc
    moves its mmap and trim thresholds as the process allocates, and the
    SVM's 512 KB per-step temporaries then cost between one and three
    times as much from one process to the next on identical inputs.
    Transparent huge pages are granted or not depending on the host's
    free memory, which moves the memory-bound SVM steps by a further 20%,
    so numpy is told not to ask for them.  With more than one malloc
    arena, about half the runs of one input set peaked 31 MB higher.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    allocator = "default"
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
        if mallopt(m_mmap_threshold, 32 << 20) and \
                mallopt(m_trim_threshold, 512 << 20) and \
                mallopt(m_arena_max, 1):
            allocator = ("glibc mmap_threshold=32MiB trim_threshold=512MiB "
                         "arena_max=1")
    except (OSError, AttributeError):
        pass
    return nproc, allocator


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(nproc: int, allocator: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "allocator": allocator,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _clear(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)


def run_setups(wl, inputs: Path, seed: int, tracer) -> list[float]:
    times = []
    for i in range(N_SETUPS):
        _clear(inputs)
        inputs.mkdir(parents=True)
        traced = tracer is not None and i == N_SETUPS - 1
        if traced:
            tracer.op_id = "setup"
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup(inputs, seed)
        finally:
            times.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
    return times


def run_ops(wl, ref: Path, seconds: float, tracer) -> list[dict]:
    """Closed loop, one client: the next operation starts when one ends."""
    from workloads import CheckError

    ops = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        op = {"k": k, "traced": traced, "windows": 0, "folds": 0,
              "error": None, "quality": {}}
        if traced:
            tracer.op_id = f"op{k}"
            tracer.install()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            op.update(wl.run(k))
        except CheckError as exc:
            op["error"] = str(exc)
        except Exception:  # the program under test raised: a failed operation
            op["error"] = traceback.format_exc(limit=3)
        finally:
            op["seconds"] = time.perf_counter() - t0
            op["cpu_seconds"] = time.process_time() - c0
            if traced:
                tracer.uninstall()
        if op["error"] is None:
            try:
                op["quality"] = wl.check(k, ref)
            except CheckError as exc:
                op["error"] = str(exc)
        if op["error"] is not None:
            op["windows"] = op["folds"] = 0
        ops.append(op)
        k += 1
        # a traced run needs a traced and an untraced operation after the
        # first, which warms caches and is left out of the overhead
        if time.perf_counter() - start >= seconds and \
                (tracer is None or k >= 3):
            return ops


def _mean_quality(ops, key):
    values = [op["quality"][key] for op in ops if key in op["quality"]]
    return statistics.fmean(values) if values else float("nan")


def end_to_end_metrics(ops, setup_times) -> tuple[dict, dict]:
    seconds = sum(op["seconds"] for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(op["seconds"] for op in ops),
        "windows_per_s": statistics.median(op["windows"] / op["seconds"]
                                           for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {
        "folds_per_s": (sum(op["folds"] for op in ops) / seconds, "1/s"),
        "correct_recognition": (_mean_quality(ops, "correct_recognition"),
                                "ratio"),
        "false_alarm": (_mean_quality(ops, "false_alarm"), "ratio"),
        "error_rate": (sum(op["error"] is not None for op in ops) / len(ops),
                       "ratio"),
    }
    return metrics, extra


def per_layer_metrics(ops, tracer) -> dict:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"] and op["k"] > 0]
    op_ids = [f"op{op['k']}" for op in traced]
    n = len(traced)
    times = tracer.layer_times(op_ids)
    setup_times = tracer.layer_times(["setup"])
    metrics = {}
    for layer in LAYER_TOTALS:
        metrics[f"{layer}.s"] = times.get(layer, {"s": 0.0})["s"] / n
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = \
            times.get(layer, {"self_s": 0.0})["self_s"] / n
    for layer in SETUP_TOTALS:
        metrics[f"setup.{layer}.s"] = setup_times.get(layer, {"s": 0.0})["s"]
    metrics["setup.synth.samples"] = tracer.counts["setup"]["synth.samples"]
    total = {name: sum(tracer.counts[i].get(name, 0.0) for i in op_ids)
             for name in COUNTS + ("svm.epochs", "svm.capped")}
    for name in COUNTS:
        metrics[name] = total[name] / n
    metrics["cnn.flop_per_byte"] = (total["cnn.flop"] / total["cnn.bytes"]
                                    if total["cnn.bytes"] else 0.0)
    folds = total["svm.folds"]
    metrics["svm.epochs_mean"] = total["svm.epochs"] / folds if folds else 0.0
    metrics["svm.capped_ratio"] = total["svm.capped"] / folds if folds else 0.0
    traced_run_s = statistics.median(op["seconds"] for op in traced)
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead_s"] = traced_run_s - statistics.median(
        op["seconds"] for op in untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "whaledet" / "cli.py").is_file():
        print(f"error: no whaledet sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc, allocator = pin_environment()
    sys.path.insert(0, str(src))
    import whaledet

    if not Path(whaledet.__file__).resolve().is_relative_to(src):
        print(f"error: imported whaledet from {whaledet.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]()
    input_seed = args.seed % workloads.N_INPUT_SETS
    ref = workloads.ref_dir(wl.name, input_seed)
    if not ref.is_dir():
        print(f"error: no reference outputs in {ref}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    _clear(run_dir)
    inputs = run_dir / "inputs"
    tracer = Tracer() if args.trace else None
    facts = machine_facts(nproc, allocator)
    try:
        setup_times = run_setups(wl, inputs, input_seed, tracer)
        ops = run_ops(wl, ref, args.seconds, tracer)
    finally:
        _clear(inputs)

    if tracer is None:
        metrics, extra = end_to_end_metrics(ops, setup_times)
        declared = spec["end_to_end"]
    else:
        metrics, extra = per_layer_metrics(ops, tracer), {}
        declared = spec["per_layer"]
        tracer.write(run_dir / "trace.json")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    failed = sum(op["error"] is not None for op in ops)
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "input_seed": input_seed, "trace": args.trace,
                   "machine": facts, "setup_seconds": setup_times,
                   "operations": ops, "metrics": result,
                   "extra": {k: {"value": v, "unit": u}
                             for k, (v, u) in extra.items()},
                   "absent_layers": tracer.absent_layers() if tracer else []},
                  fh, indent=1)

    print("machine " + json.dumps(facts))
    print(f"{wl.name} seed={args.seed} inputs={input_seed} "
          f"operations={len(ops)} failed={failed}")
    for op in ops:
        if op["error"] is not None:
            print(f"  operation {op['k']} failed: {op['error']}",
                  file=sys.stderr)
    if tracer is not None and tracer.absent_layers():
        print("absent layers: " + ", ".join(tracer.absent_layers()))
    for name, entry in result.items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
