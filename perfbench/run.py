"""transducerkit benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. With ``--trace 0`` the run times its workload for ``--seconds``,
measures per-operation memory in a separate untimed pass, runs the
correctness checks, and prints the end-to-end metrics. With ``--trace 1`` it
times the same operations twice, untraced and then with a span around every
layer entry point, and prints the per-layer metrics. The last line of stdout
is the result object; the line before it holds the run's fingerprint and
details. Metric names, units and workloads are listed in BENCHMARK.json and
explained in perfbench/README.md.
"""

import os

# Pinned before numpy loads: one BLAS thread, so the run is a single-core
# closed loop whatever the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
OUT_DIR = ".bench_out"


class TimedOps:
    """Per-operation wall times and work counts of one closed loop."""

    def __init__(self):
        self.times = []
        self.utts = []
        self.cells = []
        self.count = 0
        self.errors = []
        self._start = self._pending = None

    def begin(self, utts, cells):
        self.count += 1
        self._pending = (utts, cells)
        self._start = time.perf_counter()

    def end(self):
        self.times.append(time.perf_counter() - self._start)
        self.utts.append(self._pending[0])
        self.cells.append(self._pending[1])

    def fail(self, exc):
        self.errors.append(f"{type(exc).__name__}: {exc}")


class MemoryOps:
    """Per-operation tracemalloc peak above the bytes traced at its start."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.peaks = []
        self.count = 0
        self.errors = []

    def begin(self, utts, cells):
        self.count += 1
        self.tracer.enter("op")

    def end(self):
        self.peaks.append(self.tracer.exit())

    def fail(self, exc):
        self.tracer.exit()
        self.errors.append(f"{type(exc).__name__}: {exc}")


def tail(times):
    """The highest percentile with TAIL_BEYOND samples beyond it, as
    (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def fingerprint(seed):
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except Exception:  # older numpy without mode="dicts"
        pass
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def _git_commit():
    """HEAD of the git repository rooted at this checkout, or "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return "unknown"
    return lines[1]


def memory_claims(tracer, joint, enc, pre, labels):
    """Measured peaks behind the paper's two memory claims, on one minibatch."""
    from transducerkit import joint as tk_joint
    from transducerkit import loss as tk_loss
    from transducerkit import tensor as tk_tensor

    def peak(fn):
        tracer.enter("claim")
        try:
            result = fn()
        finally:
            bytes_ = tracer.exit()
        return result, bytes_

    _, packed = peak(lambda: joint.combine_packed(enc, pre))
    _, broadcast = peak(lambda: tk_joint.combine_broadcast_reference(joint, enc, pre))
    z, _ = joint.combine_packed(enc, pre)
    logits, projected = peak(lambda: joint.project_logits(z))
    spec = tk_joint.BatchSpec([(e.shape[0], len(l)) for e, l in zip(enc, labels)],
                              joint.joint_dim, joint.num_labels)
    modeled = tk_joint.footprint(spec, "packed", "logits")
    tk_tensor.softmax_inplace(logits.data)
    copy = tk_joint.PackedLattice(logits.data.copy(), logits.dims)
    ws_merged = tk_loss.forward_backward(logits, labels)
    ws_chain = tk_loss.forward_backward(copy, labels)
    _, merged = peak(lambda: tk_loss.grad_logits_merged(ws_merged))
    _, chain = peak(lambda: tk_loss.grad_logits_chain(ws_chain))
    return {
        "loss.chain_over_merged_peak": (chain - merged) / logits.data.nbytes,
        "joint.broadcast_over_packed_peak": broadcast / packed,
        "joint.logits_model_over_measured": modeled / projected,
    }, {"merged_peak_bytes": merged, "chain_peak_bytes": chain,
        "logits_lattice_bytes": logits.data.nbytes, "packed_peak_bytes": packed,
        "broadcast_peak_bytes": broadcast, "project_peak_bytes": projected,
        "modeled_logits_bytes": modeled}


def _import_program():
    """Import transducerkit from this checkout's src/, and the benchmark's
    own modules; refuse any other copy of the program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "transducerkit", "__init__.py")):
        raise SystemExit(f"no transducerkit sources under {src}")
    sys.path[:0] = [p for p in (src, HERE) if p not in sys.path]
    import transducerkit

    if not os.path.abspath(transducerkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"transducerkit imported from {transducerkit.__file__}, not {src}")
    import tracing
    import workloads

    return tracing, workloads


def _memory_pass(tracing, wl, wrap_layers):
    """Untimed pass under tracemalloc; returns (op peaks, layer tracer,
    memory claims or None)."""
    mem = tracing.Tracer(memory=True)
    ops = MemoryOps(mem)
    claims = None
    tracemalloc.start()
    try:
        if wrap_layers:
            with tracing.layer_wrappers(mem, getattr(wl, "model", None)):
                wl.memory_run(ops)
            claims = memory_claims(tracing.Tracer(memory=True), *wl.claims_inputs())
        else:
            wl.memory_run(ops)
    finally:
        tracemalloc.stop()
    return ops, mem, claims


def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result dict, details dict)."""
    tracing, workloads = _import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    size = workloads.sizes(tiny)
    details = {"workload": workload, "fingerprint": fingerprint(seed), "seconds": seconds}
    if workload.startswith("decode-"):
        t0 = time.perf_counter()
        _, built = workloads.build_decode_model(ROOT, size["DECODE_TRAIN_STEPS"])
        details["decode_model_build_s"] = time.perf_counter() - t0 if built else 0.0

    make = workloads.WORKLOADS[workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = make(ROOT, seed, size)
        setup_times.append(time.perf_counter() - t0)

    timed = TimedOps()
    t0 = time.perf_counter()
    deadline = t0 + seconds / (2 if trace else 1)
    wl.run(timed, lambda: time.perf_counter() >= deadline)
    wall = time.perf_counter() - t0
    if not timed.times:
        raise SystemExit(f"no {workload} operation completed: {timed.errors[:3]}")
    failures = list(timed.errors)
    attempted = timed.count

    if trace:
        tracer = tracing.Tracer()
        traced = TimedOps()
        with tracing.layer_wrappers(tracer, getattr(wl, "model", None)):
            t0 = time.perf_counter()
            wl.run(traced, lambda: traced.count >= timed.count)
            traced_wall = time.perf_counter() - t0
        failures += traced.errors
        attempted += traced.count
    mem_ops, mem, claims = _memory_pass(tracing, wl, wrap_layers=trace)
    failures += mem_ops.errors
    try:
        loss_end = wl.check(failures)
    except Exception as exc:  # a check that cannot run is a failed check
        failures.append(f"check raised {type(exc).__name__}: {exc}")
        loss_end = float("nan")

    if trace:
        metrics = tracing.layer_metrics(tracer, traced_wall, wall, mem)
        metrics.update(claims[0])
        details["claim_bytes"] = claims[1]
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        spans_path = os.path.join(ROOT, OUT_DIR, f"spans-{workload}-{seed}.tsv")
        tracer.write_spans(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        tail_value, tail_pct = tail(timed.times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "utts_per_s": sum(timed.utts) / wall,
            "cells_per_s": sum(timed.cells) / wall,
            "op_ms_p50": 1e3 * statistics.median(timed.times),
            "op_ms_tail": 1e3 * tail_value,
            "peak_op_mb": max(mem_ops.peaks, default=float("nan")) / 1e6,
            "loss_end": loss_end,
        }
        details["op_ms_tail_percentile"] = tail_pct
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    details.update({
        "ops": len(timed.times),
        "wall_s": wall,
        "setup_s_all": setup_times,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    })
    if hasattr(wl, "digest"):
        details["decode_digest"] = wl.digest()
        details["token_error"] = wl.token_error()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
