"""tools/bench.py --against: interleaved A/B of two checkouts, with run_once stubbed."""

import importlib.util
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench.py")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    spec_json = {
        "run_seconds": 2,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "utts_per_s", "better": "higher", "bound": 0.25},
                       {"name": "loss_end", "better": "lower", "bound": 0.25}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec_json))
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    calls = []

    def run_once(root, workload, seed, seconds):
        side = "change" if root == str(tmp_path) else "base"
        calls.append((side, workload, seed, seconds))
        metrics = {
            "utts_per_s": {"unit": "1/s", "value": (20.0 if side == "change" else 10.0) + seed},
            "loss_end": {"unit": "nats/frame", "value": None},
        }
        result = {"correct": True, "failed": 0, "attempted": 4, "metrics": metrics}
        return {"fingerprint": {"seed": seed, "commit": side}}, result

    monkeypatch.setattr(module, "run_once", run_once)
    return module, calls, tmp_path


def test_against_alternates_sides_pair_by_pair(bench):
    module, calls, root = bench
    assert module.main(["--label", "ab", "--seeds", "1-3", "--against", "parent-dir"]) == 0
    # each (seed, workload) pair runs both sides back to back
    pairs = [calls[i : i + 2] for i in range(0, len(calls), 2)]
    assert [(a[1:], b[1:]) for a, b in pairs] == [((w, s, 2), (w, s, 2)) for s in (1, 2, 3) for w in ("w1", "w2")]
    assert [a[0] for a, _ in pairs] == ["base", "change", "change", "base", "base", "change"]
    assert all({a[0], b[0]} == {"base", "change"} for a, b in pairs)

    out = json.loads((root / "BENCH_ab.json").read_text())
    assert out["fingerprint"] == {"commit": "change"}
    assert out["base_fingerprint"] == {"commit": "base"}
    w1 = out["workloads"]["w1"]
    assert w1["base"]["metrics"]["utts_per_s"]["runs"] == [11.0, 12.0, 13.0]
    assert w1["change"]["metrics"]["utts_per_s"]["median"] == 22.0
    assert (w1["base"]["metrics"]["utts_per_s"]["q1"], w1["base"]["metrics"]["utts_per_s"]["q3"]) == (11.0, 13.0)
    assert [p["first"] for p in w1["pairs"]] == ["base", "change", "base"]
    assert [p["first"] for p in out["workloads"]["w2"]["pairs"]] == ["change", "base", "change"]
    assert [p["ratios"]["utts_per_s"] for p in w1["pairs"]] == [21 / 11, 22 / 12, 23 / 13]
    assert w1["median_ratio"] == {"utts_per_s": 22 / 12, "loss_end": None}


def test_without_against_runs_this_checkout_only(bench):
    module, calls, root = bench
    assert module.main(["--label", "one", "--seeds", "5"]) == 0
    assert [c[:3] for c in calls] == [("change", "w1", 5), ("change", "w2", 5)]
    out = json.loads((root / "BENCH_one.json").read_text())
    assert "base_fingerprint" not in out
    assert out["workloads"]["w1"]["metrics"]["utts_per_s"]["median"] == 25.0


def test_against_reads_the_no_regression_rule_off_the_file(bench, monkeypatch):
    module, _, root = bench
    # metric: (better, base run of seed i, change run of seed i, verdict, pairs the change read better)
    cases = {
        # 9 of 10 pairs better (one tie), median gain 20 against a parent IQR of 5.5
        "utts_per_s": ("higher", lambda i: 100 + i, lambda i: 100 if i == 0 else 120 + i, "better", 9),
        "cells_per_s": ("higher", lambda i: 100 + i, lambda i: 100 + i, "same", 0),
        # 3 worse on a parent median of 10.45, past its bound of 2.6
        "op_ms_p50": ("lower", lambda i: 10 + 0.1 * i, lambda i: 13 + 0.1 * i, "worse", 0),
        # the parent's runs spread over 0.67 of their median, wider than the bound
        "op_ms_tail": ("lower", lambda i: (10, 20)[i % 2], lambda i: (12, 18)[i % 2], "unresolved", 5),
        # as wide, but every change run beats every parent run
        "peak_op_mb": ("lower", lambda i: (10, 20)[i % 2], lambda i: 4, "better", 10),
        # beats every parent run too, but by less than the parent's IQR of 10
        "setup_s": ("lower", lambda i: (10, 20)[i % 2], lambda i: 6, "same", 10),
    }
    spec = json.loads((root / "BENCHMARK.json").read_text())
    spec["end_to_end"] = [{"name": name, "better": case[0], "bound": 0.25} for name, case in cases.items()]
    spec["end_to_end"].append({"name": "loss_end", "better": "lower", "bound": 0.25})
    (root / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(checkout, workload, seed, seconds):
        side = 2 if checkout == str(root) else 1
        metrics = {name: {"unit": "x", "value": float(case[side](seed - 1))} for name, case in cases.items()}
        metrics["loss_end"] = {"unit": "nats/frame", "value": None}
        return {"fingerprint": {"seed": seed}}, {"correct": True, "failed": 0, "attempted": 1, "metrics": metrics}

    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main(["--label", "rule", "--seeds", "1-10", "--against", "parent-dir"]) == 0
    for workload in ("w1", "w2"):
        verdicts = json.loads((root / "BENCH_rule.json").read_text())["workloads"][workload]["verdicts"]
        assert verdicts.pop("loss_end") is None
        assert {name: (v["verdict"], v["better_pairs"], v["pairs"]) for name, v in verdicts.items()} == {
            name: (case[3], case[4], 10) for name, case in cases.items()
        }
        assert verdicts["utts_per_s"]["base_spread"] == 5.5 / 104.5
        assert verdicts["op_ms_tail"]["base_spread"] == 10 / 15
