"""tools/fingerprint.py: two runs agree bitwise, and altered digests read as
within 1e-12 or changed.

The checked-in FINGERPRINT.json is not compared here: BLAS rounding differs
between hosts.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fingerprint.py")
CONFIGS = {"quickstart.cfg", "ecltgru-tau4.cfg", "baseline-lstm.cfg"}
HOST_KEYS = {"commit", "python", "numpy", "blas", "blas_threads", "nproc", "machine"}


def tool(*args):
    return subprocess.run([sys.executable, TOOL, *map(str, args)], capture_output=True, text=True, cwd=ROOT)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Two records of this checkout, computed by concurrent processes."""
    tmp = tmp_path_factory.mktemp("fingerprint")
    paths = [tmp / "a.json", tmp / "b.json"]
    procs = [subprocess.Popen([sys.executable, TOOL, "--out", str(p)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for p in paths]
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err
    return paths


def check_digest(d):
    assert set(d) == {"sha256", "size", "sumsq", "maxabs"}
    assert len(d["sha256"]) == 64 and int(d["sha256"], 16) >= 0
    assert d["size"] >= 1 and float(d["sumsq"]) >= 0 and float(d["maxabs"]) >= 0


def check_hypothesis(h):
    assert set(h) == {"tokens", "frames", "log_prob"}
    assert len(h["tokens"]) == len(h["frames"]) and float.fromhex(h["log_prob"]) <= 0


def test_schema(records):
    record = json.loads(records[0].read_text())
    assert record["schema"] == "transducerkit-fingerprint/1"
    assert set(record["host"]) == HOST_KEYS and record["host"]["blas_threads"] == "1"
    assert set(record["configs"]) == CONFIGS
    for rec in record["configs"].values():
        float.fromhex(rec["loss"])
        assert len(rec["epoch_losses"]) >= 2
        assert list(rec["grads"]) == list(rec["trained"]) and len(rec["grads"]) >= 30
        for d in [*rec["grads"].values(), *rec["trained"].values()]:
            check_digest(d)
        assert len(rec["checkpoint_sha256"]) == 64
        assert rec["greedy"] and list(rec["beam"]) == list(rec["greedy"])
        for utt, nbest in rec["beam"].items():
            assert 1 <= len(nbest) <= 10
            for h in [rec["greedy"][utt], *nbest]:
                check_hypothesis(h)


def test_two_runs_compare_bitwise(records):
    proc = tool("--compare", *records)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith("0 within 1e-12, 0 changed")
    assert all(line.startswith("bitwise\t") for line in lines[:-1])


def test_altered_digests_compare_within_and_changed(records, tmp_path):
    altered = json.loads(records[0].read_text())
    rec = altered["configs"]["quickstart.cfg"]
    rec["loss"] = float.hex(math.nextafter(float.fromhex(rec["loss"]), math.inf))
    path = tmp_path / "altered.json"
    path.write_text(json.dumps(altered))
    proc = tool("--compare", records[0], path)
    assert proc.returncode == 0
    assert [line for line in proc.stdout.splitlines() if not line.startswith("bitwise\t")][:-1] == [
        "within 1e-12\tquickstart.cfg loss"]

    grad = rec["grads"]["enc.l0.time.wx"]
    grad["sha256"] = "0" * 64
    grad["sumsq"] = repr(float(grad["sumsq"]) * (1 + 1e-9))
    path.write_text(json.dumps(altered))
    proc = tool("--compare", records[0], path)
    assert proc.returncode == 1
    changed = [line for line in proc.stdout.splitlines() if line.startswith("changed\t")]
    assert changed == ["changed\tquickstart.cfg grads enc.l0.time.wx"]
