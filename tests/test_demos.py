"""Smoke test for demos 01-03: each runs from the repo root and prints its
measured results. Demo 04 trains a model for about a minute and is left out."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_packed_lattice_memory():
    out = run_demo("01_packed_lattice_memory.py")
    m = re.search(r"measured \(tracemalloc\): combine_packed leaves (\d+) B allocated, "
                  r"the (\d+) B packed buffer", out)
    assert m, out
    held, packed = int(m.group(1)), int(m.group(2))
    assert f"footprint model: packed {packed} B" in out
    assert packed <= held <= packed + 4096


def test_transducer_loss_memory():
    out = run_demo("02_transducer_loss.py")
    chain = re.search(r"measured chain rule: peak \+\d+ B = ([\d.]+) posterior buffers", out)
    merged = re.search(r"measured merged: +peak \+\d+ B = ([\d.]+) posterior buffers "
                       r"\(gradient overwrote the posterior buffer: True\)", out)
    assert chain and merged, out
    assert float(merged.group(1)) < 0.05
    assert float(chain.group(1)) - float(merged.group(1)) >= 1.9


def test_architectures():
    out = run_demo("03_architectures.py")
    for line in (
        "ecltGRU(tau=0, unit context vector) == ltGRU bitwise: True",
        "cltLSTM(tau=1, G0=I, G1=0) == ltLSTM within 1e-12: True",
        "perturbing frame t+6 changes the output at frame t: True",
        "perturbing frame t+7 changes the output at frame t: False",
    ):
        assert line in out
