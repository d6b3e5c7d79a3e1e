#!/usr/bin/env python3
"""Train a small transducer on the synthetic task, then decode and score it.

Runs a scaled-down version of the quickstart configuration (about a minute
of CPU time), compares greedy and beam decoding, and measures emission
delay against the ground-truth token boundaries.
"""

import time

from transducerkit.data import SyntheticTaskSpec, gen_synthetic
from transducerkit.decode import DecodeConfig, corpus_delay, decode_corpus
from transducerkit.model import ModelConfig, TransducerModel
from transducerkit.networks import NetConfig
from transducerkit.train import TrainConfig, evaluate_token_error, fit

spec = SyntheticTaskSpec(train_size=400, dev_size=30, test_size=60, seed=0)
corpus = gen_synthetic(spec)
print(f"synthetic corpus: {len(corpus['train'])} train / {len(corpus['test'])} test utterances")
utt = corpus["train"][0]
print(f"example utterance: {utt.features.shape[0]} raw frames, labels {utt.labels}")

model = TransducerModel(
    ModelConfig(
        feature_dim=spec.feature_dim,
        num_labels=spec.num_labels,
        joint_dim=64,
        encoder=NetConfig(cell_kind="lt_gru", num_layers=2, hidden=64, input_dim=60),
        prediction=NetConfig(cell_kind="ln_gru", num_layers=1, hidden=64, input_dim=16),
        frame_stack=3,
        seed=0,
    )
)
print(f"model: 2-layer layer-trajectory GRU encoder, {model.registry.num_scalars()} parameters")

t0 = time.time()
cfg = TrainConfig(epochs=5, lr=5e-3, lr_decay=0.7, batch_budget=900, seed=0)
fit(model, corpus["train"], cfg, dev_utts=corpus["dev"])
print(f"trained in {time.time() - t0:.0f}s")

greedy_err, hyps = evaluate_token_error(model, corpus["test"], DecodeConfig(mode="greedy"))
beam_err, _ = evaluate_token_error(
    model, corpus["test"], DecodeConfig(mode="beam", beam_width=10)
)
print(f"token error: greedy {greedy_err:.4f}, beam-10 {beam_err:.4f}")

mean_delay, _ = corpus_delay(
    ((u.utt_id, hyps[u.utt_id].tokens, hyps[u.utt_id].emit_frames, u.labels, u.ref_frames)
     for u in corpus["test"]),
    frame_divisor=3,  # raw 10ms frames -> stacked 30ms encoder frames
)
print(f"mean emission delay vs token end: {mean_delay:+.2f} encoder frames")

utt = corpus["test"][0]
hyp = decode_corpus(model, [utt], DecodeConfig(mode="beam", beam_width=10))[utt.utt_id]
print(f"\nsample decode ({utt.utt_id}):")
print(f"  reference  {utt.labels}")
print(f"  hypothesis {list(hyp.tokens)} at frames {list(hyp.emit_frames)}")
