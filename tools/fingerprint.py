"""Record the program's numeric behaviour as digests, or compare two records.

    python3 tools/fingerprint.py                            # writes FINGERPRINT.json
    python3 tools/fingerprint.py --out new.json --compare FINGERPRINT.json
    python3 tools/fingerprint.py --compare old.json new.json

For each shipped model config, on a fixed slice of the default synthetic
task, the record holds:

- the loss (``float.hex``) of one ``batch_loss_and_grad`` on a fixed
  minibatch, and per parameter the SHA-256 of its gradient's bytes, its sum
  of squares and its max |value| (17 significant digits);
- the same digests of every parameter value after a short, fixed ``fit``
  (clipping, Adam, learning-rate decay and the epoch loop), the per-epoch
  mean losses, and the SHA-256 of that model's saved checkpoint;
- greedy and beam-10 n-best tokens, frames and log-probs of the trained
  model on a fixed set of test utterances;

and the host, as ``perfbench/run.py`` records it for ``BENCH_*.json``.

``--compare OLD`` computes this checkout's record and compares OLD with it;
``--compare OLD NEW`` compares two records without computing. Each entry
prints as ``bitwise``, ``within 1e-12`` or ``changed``, and the exit status
is 1 if any entry changed (or a file is not a record). "Within 1e-12" means the digests are consistent
with every element agreeing to 1e-12, absolutely or relative to values above
1 (the tests' tolerance): max |value| within that, and the norm within
sqrt(size) times that. Decoded tokens and frames must be equal. Compare
records from the same host: BLAS rounding differs between hosts.
"""

import os

# Pinned before numpy loads, as perfbench/run.py does: one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from transducerkit import config as tk_config  # noqa: E402
from transducerkit.data import gen_synthetic  # noqa: E402
from transducerkit.decode import DecodeConfig, beam_decode, greedy_decode  # noqa: E402
from transducerkit.model import TransducerModel  # noqa: E402
from transducerkit.train import fit, save_checkpoint  # noqa: E402

SCHEMA = "transducerkit-fingerprint/1"
CONFIGS = ("quickstart.cfg", "ecltgru-tau4.cfg", "baseline-lstm.cfg")
# the default task's spec and seed, with small splits
TASK = dict(train_size=80, dev_size=0, test_size=6)
LOSS_UTTS = 6  # the first training utterances form the loss minibatch
EPOCHS = 3
BEAM_WIDTH = 10
TOL = 1e-12


def host():
    """The host fields of a ``BENCH_*.json`` fingerprint."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    found = run.fingerprint(None)
    found.pop("seed")
    return found


def digest(arr):
    return {
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
        "size": int(arr.size),
        "sumsq": f"{float((arr * arr).sum()):.17g}",
        "maxabs": f"{float(abs(arr).max(initial=0.0)):.17g}",
    }


def hypothesis(hyp):
    return {"tokens": list(hyp.tokens), "frames": list(hyp.emit_frames), "log_prob": float.hex(hyp.log_prob)}


def config_record(name, corpus):
    run_cfg = tk_config.RunConfig.load(os.path.join(ROOT, "configs", name))
    model = TransducerModel(tk_config.model_config_from(run_cfg))
    batch = [(u.features, u.labels) for u in corpus["train"][:LOSS_UTTS]]
    model.registry.zero_grad()
    record = {
        "loss": float.hex(model.batch_loss_and_grad(batch)),
        "grads": {p.name: digest(p.grad) for p in model.registry},
    }
    train_cfg = dataclasses.replace(tk_config.train_config_from(run_cfg), epochs=EPOCHS)
    history = fit(model, corpus["train"], train_cfg, log=lambda msg: None)
    record["epoch_losses"] = [float.hex(e["mean_loss"]) for e in history["epochs"]]
    record["trained"] = {p.name: digest(p.value) for p in model.registry}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.tkc")
        save_checkpoint(path, model, step=len(history["steps"]))
        with open(path, "rb") as f:
            record["checkpoint_sha256"] = hashlib.sha256(f.read()).hexdigest()
    decode_cfg = DecodeConfig(mode="beam", beam_width=BEAM_WIDTH)
    record["greedy"], record["beam"] = {}, {}
    for utt in corpus["test"]:
        enc, _ = model.encode(utt.features)
        record["greedy"][utt.utt_id] = hypothesis(greedy_decode(model, enc, decode_cfg.max_symbols_per_frame))
        record["beam"][utt.utt_id] = [hypothesis(h) for h in beam_decode(model, enc, decode_cfg)[1]]
    return record


def compute():
    task_cfg = tk_config.RunConfig.load(os.path.join(ROOT, "configs", "default-task.cfg"), schema=tk_config.TASK_KEYS)
    corpus = gen_synthetic(dataclasses.replace(tk_config.task_spec_from(task_cfg), **TASK))
    return {
        "schema": SCHEMA,
        "host": host(),
        "configs": {name: config_record(name, corpus) for name in CONFIGS},
    }


def entries(record):
    """Flatten a record into {entry name: (kind, value)}."""
    out = {}
    for name, rec in record["configs"].items():
        out[f"{name} loss"] = ("float", rec["loss"])
        out[f"{name} epoch_losses"] = ("floats", rec["epoch_losses"])
        for group in ("grads", "trained"):
            for param, d in rec[group].items():
                out[f"{name} {group} {param}"] = ("array", d)
        out[f"{name} checkpoint"] = ("bytes", rec["checkpoint_sha256"])
        for mode in ("greedy", "beam"):
            for utt, hyps in rec[mode].items():
                out[f"{name} {mode} {utt}"] = ("hyps", hyps if mode == "beam" else [hyps])
    return out


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def verdict(kind, old, new):
    """"bitwise", "within 1e-12" or "changed" for one entry."""
    if old == new:
        return "bitwise"
    if kind == "float":
        ok = close(float.fromhex(old), float.fromhex(new))
    elif kind == "floats":
        ok = len(old) == len(new) and all(close(float.fromhex(a), float.fromhex(b)) for a, b in zip(old, new))
    elif kind == "array":
        # elementwise agreement to TOL bounds the max |value| by TOL and the
        # norm by sqrt(size) * TOL (relative to values above 1)
        top = max(1.0, float(old["maxabs"]), float(new["maxabs"]))
        ok = (old["size"] == new["size"]
              and abs(float(old["maxabs"]) - float(new["maxabs"])) <= TOL * top
              and abs(math.sqrt(float(old["sumsq"])) - math.sqrt(float(new["sumsq"])))
              <= TOL * top * math.sqrt(old["size"]))
    elif kind == "hyps":
        ok = len(old) == len(new) and all(
            a["tokens"] == b["tokens"] and a["frames"] == b["frames"]
            and close(float.fromhex(a["log_prob"]), float.fromhex(b["log_prob"]))
            for a, b in zip(old, new))
    else:  # bytes: a digest of the whole file
        ok = False
    return "within 1e-12" if ok else "changed"


def compare(old, new):
    """Print one verdict per entry and a summary; returns the number changed."""
    old_entries, new_entries = entries(old), entries(new)
    counts = {"bitwise": 0, "within 1e-12": 0, "changed": 0}
    for key in sorted(old_entries.keys() | new_entries.keys()):
        if key in old_entries and key in new_entries:
            (kind, a), (_, b) = old_entries[key], new_entries[key]
            v = verdict(kind, a, b)
        else:
            v = "changed"
            key += " (only in " + ("old" if key in old_entries else "new") + ")"
        counts[v] += 1
        print(f"{v}\t{key}")
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return counts["changed"]


def load(path):
    with open(path) as f:
        record = json.load(f)
    if record.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a {SCHEMA} record (schema {record.get('schema')!r})")
    return record


def write(path, record):
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="where to write this checkout's record (default: FINGERPRINT.json at "
                                      "the checkout root, unless comparing)")
    parser.add_argument("--compare", nargs="+", metavar="FILE", help="OLD, or OLD NEW")
    args = parser.parse_args(argv)
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes OLD or OLD NEW")
    if args.compare and len(args.compare) == 2:
        old, new = map(load, args.compare)
    else:
        new = compute()
        out = args.out or (None if args.compare else os.path.join(ROOT, "FINGERPRINT.json"))
        if out:
            write(out, new)
        if not args.compare:
            return 0
        old = load(args.compare[0])
    return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(main())
