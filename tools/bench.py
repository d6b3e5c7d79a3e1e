"""Run every benchmark workload over a range of seeds and write their medians.

    python3 tools/bench.py --label fused --seeds 101-105
    python3 tools/bench.py --label ab --seeds 101-105 --against ../parent

Runs ``perfbench/run.py`` of the checkout holding this script, unchanged, one
process per (seed, workload), for the workloads and run length listed in
``BENCHMARK.json``, and writes ``BENCH_<label>.json`` at the checkout root:
per workload the median, the quartiles and every run's value of each
end-to-end metric, the failed and attempted operation counts, and the
fingerprint from the runs' details lines. Compare two such files only when
they were measured on the same host.

``--against DIR`` makes an interleaved A/B: for each (seed, workload) it runs
the checkout at DIR ("base", e.g. the parent commit) and this one ("change")
back to back, alternating which goes first, so that host drift falls on both
sides alike. Each workload then holds both sides' summaries and, per pair,
the change/base ratio of every end-to-end metric with the median ratio, and
per end-to-end metric of ``BENCHMARK.json`` the verdict of ``judge``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """"101-105" or "7,9,11" -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_once(root, workload, seed, seconds):
    """One benchmark process of the checkout at ``root``; returns (details,
    result) from its last two lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs):
    """Per-metric median, quartiles and run values of one workload's runs."""
    metrics = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        finite = [v for v in values if v is not None]
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"], "runs": values}
        if finite:
            entry["median"] = statistics.median(finite)
            entry["q1"], entry["q3"] = quartiles(finite)
        metrics[name] = entry
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["result"]["correct"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "metrics": metrics,
    }


def ratios(base, change):
    """change/base of every metric of one pair of runs (None where undefined)."""
    out = {}
    for name, entry in change["metrics"].items():
        b, c = base["metrics"][name]["value"], entry["value"]
        out[name] = c / b if b and c is not None else None
    return out


def judge(runs, metric):
    """The no-regression reading of one end-to-end metric (its ``name``,
    ``better`` and ``bound`` as in BENCHMARK.json) over one workload's pairs,
    or None where a side has no value.

    Records how many pairs the change read better (ties count for neither
    side) and the parent's interquartile range over its median, then a
    verdict. ``unresolved``: that spread is wider than the bound, and not
    every change run beats every parent run. Otherwise ``worse``: the
    change's median is worse than the parent's by more than the bound;
    ``better``: the change read better in at least nine pairs of ten and its
    median beats the parent's by more than the parent's interquartile range;
    ``same``: neither.
    """
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    pairs = [(r["base"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"]) for r in runs]
    pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
    base = [b for b, _ in pairs]
    if not base or not statistics.median(base):
        return None
    base_median = statistics.median(base)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(base_median)
    better_pairs = sum(sign * (c - b) > 0 for b, c in pairs)
    gain = sign * (statistics.median(c for _, c in pairs) - base_median)
    if spread > metric["bound"] and min(sign * c for _, c in pairs) <= max(sign * b for b in base):
        verdict = "unresolved"
    elif gain < -metric["bound"] * abs(base_median):
        verdict = "worse"
    elif better_pairs >= 0.9 * len(pairs) and gain > q3 - q1:
        verdict = "better"
    else:
        verdict = "same"
    return {"pairs": len(pairs), "better_pairs": better_pairs, "base_spread": spread, "verdict": verdict}


def summarize_ab(runs, end_to_end):
    """Both sides' summaries of one workload's pairs, the per-pair change/base
    ratios and their median per metric, and ``judge``'s reading of each
    end-to-end metric."""
    pairs = [{"seed": r["seed"], "first": r["first"], "ratios": ratios(r["base"], r["change"])} for r in runs]
    median_ratio = {}
    for name in pairs[0]["ratios"]:
        values = [p["ratios"][name] for p in pairs if p["ratios"][name] is not None]
        median_ratio[name] = statistics.median(values) if values else None
    out = {key: summarize([{"seed": r["seed"], "result": r[key]} for r in runs]) for key in ("base", "change")}
    verdicts = {m["name"]: judge(runs, m) for m in end_to_end if m["name"] in median_ratio}
    out.update(pairs=pairs, median_ratio=median_ratio, verdicts=verdicts)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "101-105" or "7,9"')
    parser.add_argument("--against", metavar="DIR", help="checkout to compare with, run interleaved")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sides = [("change", ROOT)] if args.against is None else [("base", args.against), ("change", ROOT)]
    runs = {w: [] for w in workloads}
    fingerprints = {}
    for i, seed in enumerate(args.seeds):
        for j, workload in enumerate(workloads):
            # the first side alternates from pair to pair and, per workload, from seed to seed
            order = sides[::-1] if (i + j) % 2 else sides
            run = {"seed": seed, "first": order[0][0]}
            for key, root in order:
                details, run[key] = run_once(root, workload, seed, seconds)
                fingerprints[key] = dict(details["fingerprint"])
                utts = run[key]["metrics"]["utts_per_s"]["value"]
                print(f"{workload} seed {seed} {key}: utts_per_s {utts:.3f} correct {run[key]['correct']}",
                      file=sys.stderr)
            runs[workload].append(run)
    for fingerprint in fingerprints.values():
        fingerprint.pop("seed")
    out = {
        "label": args.label,
        "fingerprint": fingerprints["change"],
        "seconds": seconds,
        "seeds": args.seeds,
    }
    if args.against is None:
        out["workloads"] = {w: summarize([{"seed": r["seed"], "result": r["change"]} for r in runs[w]])
                            for w in workloads}
    else:
        out["base_fingerprint"] = fingerprints["base"]
        out["workloads"] = {w: summarize_ab(runs[w], spec["end_to_end"]) for w in workloads}
        for w, summary in out["workloads"].items():
            readings = [f"{name} {v['verdict']} ({v['better_pairs']}/{v['pairs']} better)"
                        for name, v in summary["verdicts"].items() if v]
            print(f"{w}: {', '.join(readings)}", file=sys.stderr)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
