"""Command-line entry point.

Machine-readable tab-separated output goes to stdout under a leading
"# schema: v1" line; human logs go to stderr. Exit codes: 0 success,
1 usage/config error, 2 runtime failure.
"""

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from . import joint as joint_mod
from .config import (
    ConfigError,
    RunConfig,
    TASK_KEYS,
    decode_config_from,
    model_config_from,
    task_spec_from,
    train_config_from,
)
from .decode import (
    DecodeConfig,
    corpus_delay,
    corpus_token_errors,
    decode_corpus,
    reported_latency_ms,
)
from .model import TransducerModel
from .train import evaluate_token_error, fit, load_checkpoint, save_checkpoint

SCHEMA_LINE = "# schema: v1"


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise _UsageExit()


def _at_least(low, typ=int, many=False):
    """Argparse type: a finite ``typ`` >= low, or with ``many`` a comma-separated list of them."""
    def parse(text):
        try:
            values = [typ(v) for v in text.split(",")] if many else [typ(text)]
            if all(low <= v < float("inf") for v in values):
                return values if many else values[0]
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {typ.__name__} >= {low}, got {text!r}")
    return parse


def _log(msg):
    print(msg, file=sys.stderr)


def _emit(lines):
    print(SCHEMA_LINE)
    for line in lines:
        print(line)


def cmd_gen(args):
    cfg = RunConfig.load(args.spec, schema=TASK_KEYS)
    spec = task_spec_from(cfg)
    corpus = data_mod.gen_synthetic(spec)
    data_mod.save_corpus(args.out, corpus)
    cfg.dump(os.path.join(args.out, "task.effective.cfg"))
    _emit([f"{split}\t{len(utts)}" for split, utts in corpus.items()])
    return 0


def cmd_train(args):
    cfg = RunConfig.load(args.config, overrides=args.set or ())
    data_dir = cfg.require_dir("data.dir")
    model = TransducerModel(model_config_from(cfg))
    tcfg = train_config_from(cfg)
    os.makedirs(args.out, exist_ok=True)
    cfg.dump(os.path.join(args.out, "config.effective.cfg"))
    train_utts = data_mod.load_split(os.path.join(data_dir, "train"), model.cfg.feature_dim)
    dev_dir = os.path.join(data_dir, "dev")
    dev_utts = data_mod.load_split(dev_dir, model.cfg.feature_dim) if os.path.isdir(dev_dir) else None
    _log(f"training {model.registry.num_scalars()} parameters for {tcfg.epochs} epochs")

    def on_epoch(epoch):
        save_checkpoint(os.path.join(args.out, f"ckpt-e{epoch:03d}.tkc"), model, step=epoch)

    history = fit(model, train_utts, tcfg, dev_utts=dev_utts, log=_log, on_epoch=on_epoch)
    save_checkpoint(os.path.join(args.out, "final.tkc"), model, step=tcfg.epochs)
    lines = ["epoch\tmean_loss\tdev_token_error"]
    for rec in history["epochs"]:
        dev = rec.get("dev_token_error")
        lines.append(f"{rec['epoch']}\t{rec['mean_loss']:.6f}\t"
                     + (f"{dev:.6f}" if dev is not None else "-"))
    with open(os.path.join(args.out, "metrics.tsv"), "w") as f:
        f.write("\n".join(lines) + "\n")
    _emit(lines)
    return 0


def cmd_decode(args):
    dcfg = DecodeConfig(args.mode, args.beam_width, args.max_symbols)
    model, _ = load_checkpoint(args.ckpt)
    utts = data_mod.load_split(args.data, model.cfg.feature_dim)
    hyps = decode_corpus(model, utts, dcfg)
    lines = []
    for utt in utts:
        hyp = hyps[utt.utt_id]
        toks = " ".join(str(t) for t in hyp.tokens)
        frames = " ".join(str(f) for f in hyp.emit_frames)
        lines.append(f"{utt.utt_id}\t{toks}\t{frames}")
    _emit(lines)
    return 0


def cmd_score(args):
    hyp = data_mod.read_label_file(args.hyp)
    ref = data_mod.read_label_file(args.ref)
    missing = sorted(set(ref) - set(hyp))
    if missing:
        raise RuntimeError(f"hypothesis file is missing utterances: {missing[:5]}")
    subs, ins, dels, tokens, rate = corpus_token_errors(
        (hyp[utt_id][0], ref_toks) for utt_id, (ref_toks, _) in ref.items()
    )
    _emit(
        [
            f"tokens\t{tokens}",
            f"sub\t{subs}",
            f"ins\t{ins}",
            f"del\t{dels}",
            f"WER\t{rate:.4f}",
        ]
    )
    return 0


def _load_dist(text):
    if text.startswith("builtin:"):
        name = text.split(":", 1)[1]
        if name not in joint_mod.BUILTIN_DISTS:
            raise ConfigError(
                f"unknown builtin distribution {name!r}; have {sorted(joint_mod.BUILTIN_DISTS)}"
            )
        return joint_mod.BUILTIN_DISTS[name]()
    if not os.path.exists(text):
        raise ConfigError(f"length distribution file not found: {text}")
    pairs = []
    with open(text) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                t, u = (int(v) for v in line.split("\t"))
            except ValueError:  # a column count other than 2, or a non-integer
                raise ConfigError(f"{text}:{lineno}: expected two integers 'T<TAB>U', got {line!r}") from None
            if t < 1 or u < 0:
                raise ConfigError(f"{text}:{lineno}: invalid sequence lengths (T={t}, U={u})")
            pairs.append((t, u))
    if not pairs:
        raise ConfigError(f"length distribution file {text} is empty")
    return pairs


def cmd_bench_mem(args):
    pairs = _load_dist(args.dist)
    lines = ["layout\tloss_variant\tk\tmax_n"]
    for layout in ("broadcast", "packed"):
        for variant in ("chain_rule", "merged"):
            for k in args.k:
                n = joint_mod.max_batch(
                    pairs, args.budget_bytes, layout, variant, args.joint_dim, k
                )
                lines.append(f"{layout}\t{variant}\t{k}\t{n}")
    _emit(lines)
    return 0


def cmd_align_delay(args):
    hyp = data_mod.read_label_file(args.hyp_with_frames)
    ref = data_mod.read_label_file(args.ref_frames)
    if not set(ref) & set(hyp):
        raise RuntimeError(
            f"{args.hyp_with_frames} and {args.ref_frames} share no utterance id "
            f"(reference ids include {sorted(ref)[:3]})"
        )
    mean, delays = corpus_delay(
        ((utt_id, *hyp[utt_id], *refs) for utt_id, refs in sorted(ref.items()) if utt_id in hyp),
        args.frame_divisor,
    )
    lines = ["utt\tdelay_frames"] + [f"{utt_id}\t{d:.4f}" for utt_id, d in delays]
    lines.append(f"mean\t{mean:.4f}")
    _emit(lines)
    return 0


def cmd_sweep_tau(args):
    cfg = RunConfig.load(args.config, overrides=args.set or ())
    data_dir = cfg.require_dir("data.dir")
    base_seed = cfg["seed"]
    dcfg = decode_config_from(cfg)
    for tau in args.tau:  # every tau's config error before any training
        cfg.values["model.encoder.tau"] = tau
        model_config_from(cfg)
    train_utts = data_mod.load_split(os.path.join(data_dir, "train"), cfg["model.feature_dim"])
    test_utts = data_mod.load_split(os.path.join(data_dir, "test"), cfg["model.feature_dim"])
    lines = ["tau\tmean_token_error\tmean_delay_frames\tlatency_ms"]
    for tau in args.tau:
        errs, delays = [], []
        for s in range(args.seeds):
            cfg.values.update({"model.encoder.tau": tau, "seed": base_seed + s})
            model = TransducerModel(model_config_from(cfg))
            fit(model, train_utts, train_config_from(cfg), log=_log)
            err, hyps = evaluate_token_error(model, test_utts, dcfg)
            delay, _ = corpus_delay(
                ((u.utt_id, hyps[u.utt_id].tokens, hyps[u.utt_id].emit_frames, u.labels, u.ref_frames)
                 for u in test_utts),
                model.cfg.frame_stack,
            )
            _log(f"tau={tau} seed={base_seed + s}: token_error={err:.4f} delay={delay:.2f}")
            errs.append(err)
            delays.append(delay)
        mean_err = float(np.mean(errs))
        mean_delay = float(np.mean(delays))
        latency = reported_latency_ms(cfg["model.encoder.layers"], tau, mean_delay)
        lines.append(f"{tau}\t{mean_err:.4f}\t{mean_delay:.4f}\t{latency:.1f}")
    _emit(lines)
    return 0


def build_parser():
    parser = _Parser(prog="transducerkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="decode a split with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    defaults = DecodeConfig()
    p.add_argument("--mode", choices=("greedy", "beam"), default=defaults.mode)
    p.add_argument("--beam-width", type=_at_least(1), default=defaults.beam_width)
    p.add_argument("--max-symbols", type=_at_least(1), default=defaults.max_symbols_per_frame)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="token error rate of a decode output")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench-mem", help="modeled max minibatch size table")
    p.add_argument("--k", type=_at_least(2, many=True), default="4096,36000", help="comma-separated output sizes")
    p.add_argument("--budget-bytes", type=_at_least(1, float), default=16e9)
    p.add_argument("--dist", default="builtin:mixed", help="builtin:mixed or a T<TAB>U file")
    p.add_argument("--joint-dim", type=_at_least(1), default=640)
    p.set_defaults(func=cmd_bench_mem)

    p = sub.add_parser("align-delay", help="mean emission delay vs ground truth")
    p.add_argument("--hyp-with-frames", required=True)
    p.add_argument("--ref-frames", required=True)
    p.add_argument("--frame-divisor", type=_at_least(1), default=1,
                   help="divide reference frames by this (3 maps raw 10ms frames "
                        "onto stacked 30ms encoder frames)")
    p.set_defaults(func=cmd_align_delay)

    p = sub.add_parser("sweep-tau", help="train/evaluate over lookahead values")
    p.add_argument("--config", required=True)
    p.add_argument("--tau", type=_at_least(0, many=True), default="0,2,4")
    p.add_argument("--seeds", type=_at_least(1), default=3)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep_tau)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
