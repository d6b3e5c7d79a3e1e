#!/usr/bin/env python3
"""The transducer loss, its enumeration oracle, and the merged gradient.

A transducer scores every monotone path through the (frame, label-position)
lattice; the loss is -log of their total probability. On tiny instances the
paths can be enumerated outright, which gives an independent oracle for the
dynamic-programming recursions. The logit gradient is then computed two
ways: the textbook chain rule (three lattice-sized tensors live at once)
and the merged form written in place over the posterior buffer (one).
"""

import tracemalloc

import numpy as np

from transducerkit.joint import PackedLattice
from transducerkit.loss import (
    brute_force_loss,
    forward_backward,
    grad_logits_chain,
    grad_logits_merged,
)
from transducerkit.tensor import softmax

print("=== worked example: T=2, U=1, K=2, every posterior 0.5 ===")
probs = np.full((2, 2, 2), 0.5)
ws = forward_backward(PackedLattice.from_blocks([probs]), [[1]])
print(f"two paths of probability 0.125 each -> loss = ln 4 = {ws.losses[0]:.6f}")
print(f"enumeration oracle agrees: {brute_force_loss(probs, [1]):.6f}")

print()
print("=== oracle check on random instances ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    t, u, k = rng.integers(1, 5), rng.integers(0, 4), rng.integers(2, 5)
    p = softmax(rng.normal(scale=2.0, size=(t, u + 1, k)))
    labels = rng.integers(1, k, size=u).tolist()
    dp = forward_backward(PackedLattice.from_blocks([p]), [labels]).losses[0]
    worst = max(worst, abs(dp - brute_force_loss(p, labels)))
print(f"max |recursion - enumeration| over 200 instances: {worst:.2e}")

print()
print("=== merged vs chain-rule gradient ===")
p = softmax(rng.normal(scale=1.5, size=(40, 11, 200)))  # T=40, U=10, K=200
labels = rng.integers(1, 200, size=10).tolist()
print(f"posterior buffer: {p.nbytes} B")


def traced_peak(fn):
    """fn's result and its tracemalloc peak above what was live at the call."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    return result, peak


ws = forward_backward(PackedLattice.from_blocks([p]), [labels])
chain, chain_peak = traced_peak(lambda: grad_logits_chain(ws))
print(f"measured chain rule: peak +{chain_peak} B = {chain_peak / p.nbytes:.2f} posterior buffers")

lat = PackedLattice.from_blocks([p])
ws = forward_backward(lat, [labels])
merged, merged_peak = traced_peak(lambda: grad_logits_merged(ws))
print(f"measured merged:     peak +{merged_peak} B = {merged_peak / p.nbytes:.4f} posterior buffers "
      f"(gradient overwrote the posterior buffer: {merged is lat})")
print(f"max |merged - chain| = {np.abs(merged.data - chain.data).max():.2e}")
print(f"per-cell gradient rows sum to {np.abs(merged.data.sum(axis=-1)).max():.2e} (softmax rows are zero-sum)")
