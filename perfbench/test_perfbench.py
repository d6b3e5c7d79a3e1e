"""Smoke tests of the benchmark itself: every workload at tiny size prints
every named metric, and every correctness check fires on corrupted input.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import transducerkit  # noqa: E402
import workloads  # noqa: E402
from transducerkit import decode as tk_decode  # noqa: E402
from transducerkit import loss as tk_loss  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(workload, trace=0, seed=3):
    return run.run_benchmark(workload, seed, 0.2, trace, tiny=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    result, details = tiny(workload)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]) and metric["value"] > 0, name
    assert details["fingerprint"]["blas_threads"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, details = tiny(workload, trace=1)
    assert result["correct"], details["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # self times plus the untraced remainder add up to the traced wall time
    modules = sum(values[f"{m}.self_s"] for m in tracing.MODULES)
    assert modules + values["trace.untraced_s"] == pytest.approx(values["trace.wall_s"])
    assert os.path.exists(os.path.join(ROOT, details["spans_file"]))


def test_merged_gradient_claim_is_measured():
    result, details = tiny("loss-long", trace=1)
    claims = details["claim_bytes"]
    assert claims["merged_peak_bytes"] < claims["logits_lattice_bytes"]
    assert claims["chain_peak_bytes"] >= 2 * claims["logits_lattice_bytes"]
    assert result["metrics"]["joint.broadcast_over_packed_peak"]["value"] > 1.0


def test_check_fires_on_perturbed_merged_gradient(monkeypatch):
    merged = tk_loss.grad_logits_merged

    def perturbed(ws, *args, **kwargs):
        out = merged(ws, *args, **kwargs)
        out.data[0, 0] += 1e-9
        return out

    monkeypatch.setattr(tk_loss, "grad_logits_merged", perturbed)
    result, details = tiny("loss-long")
    assert not result["correct"] and result["failed"] >= 1
    assert any("chain rule" in f for f in details["failures"])


def test_gradients_agree_tolerance():
    failures = []
    a = np.zeros((3, 4))
    checks.gradients_agree(a, a + 1e-13, failures)
    assert failures == []
    checks.gradients_agree(a, a + 1e-11, failures)
    assert len(failures) == 1


def test_check_fires_on_raised_hypothesis_score(monkeypatch):
    greedy = tk_decode.greedy_decode

    def raised(*args, **kwargs):
        hyp = greedy(*args, **kwargs)
        hyp.log_prob += 1.0
        return hyp

    monkeypatch.setattr(tk_decode, "greedy_decode", raised)
    result, details = tiny("decode-greedy")
    assert not result["correct"]
    assert any("exceeds lattice log-likelihood" in f for f in details["failures"])


def test_check_fires_on_nondeterministic_decode(monkeypatch):
    greedy = tk_decode.greedy_decode
    calls = []

    def drifting(*args, **kwargs):
        hyp = greedy(*args, **kwargs)
        calls.append(1)
        if len(calls) % 2 == 0:
            hyp.tokens = hyp.tokens + (1,)
            hyp.emit_frames = hyp.emit_frames + (1,)
        return hyp

    monkeypatch.setattr(tk_decode, "greedy_decode", drifting)
    result, details = tiny("decode-greedy")
    assert not result["correct"]
    assert any("repeated decode differs" in f for f in details["failures"])


def test_check_fires_on_nonrepeating_training(monkeypatch):
    import transducerkit.model as tk_model

    original = tk_model.TransducerModel.batch_loss_and_grad
    calls = []

    def drifting(self, batch):
        calls.append(1)
        return original(self, batch) + 1e-6 * len(calls)

    monkeypatch.setattr(tk_model.TransducerModel, "batch_loss_and_grad", drifting)
    result, details = tiny("train-quickstart")
    assert not result["correct"]
    assert any("differ between repeats" in f for f in details["failures"])


def test_score_bound():
    failures = []
    checks.score_bound(-2.0, -1.0, "ok", failures)
    checks.score_bound(-1.0 + 1e-10, -1.0, "slack", failures)
    assert failures == []
    checks.score_bound(-0.5, -1.0, "raised", failures)
    checks.score_bound(float("nan"), -1.0, "nan", failures)
    assert len(failures) == 2


def test_same_seed_same_decode_digest():
    first = tiny("decode-beam", seed=5)[1]["decode_digest"]
    assert tiny("decode-beam", seed=5)[1]["decode_digest"] == first


def test_tail_percentile_keeps_ten_samples_beyond():
    times = list(range(100))
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_spec_names_match_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert transducerkit.__file__.startswith(os.path.join(ROOT, "src"))
