"""Correctness checks run untimed after each timed run.

Each check appends a message to ``failures`` when it fails, and every message
counts as one failed operation in the result.
"""

import numpy as np

from transducerkit import loss as tk_loss
from transducerkit import tensor as tk_tensor
from transducerkit.joint import PackedLattice

MERGED_TOLERANCE = 1e-12
SCORE_SLACK = 1e-9


def merged_vs_chain(logits, labels_list, failures):
    """The in-place merged logit gradient equals the chain-rule reference."""
    tk_tensor.softmax_inplace(logits.data)
    copy = PackedLattice(logits.data.copy(), logits.dims)
    chain = tk_loss.grad_logits_chain(tk_loss.forward_backward(copy, labels_list))
    merged = tk_loss.grad_logits_merged(tk_loss.forward_backward(logits, labels_list))
    gradients_agree(merged.data, chain.data, failures)


def gradients_agree(merged, chain, failures):
    diff = float(np.max(np.abs(merged - chain)))
    if not diff <= MERGED_TOLERANCE:
        failures.append(f"merged logit gradient differs from the chain rule by {diff:.3e}")


def score_bound(log_prob, lattice_log_like, what, failures):
    """A decoded path cannot outscore the sum over all paths of its tokens."""
    if not (np.isfinite(log_prob) and log_prob <= lattice_log_like + SCORE_SLACK):
        failures.append(f"{what}: hypothesis log_prob {log_prob!r} exceeds "
                        f"lattice log-likelihood {lattice_log_like!r}")


def same_sequence(what, reference, values, failures, prefix=False):
    """``values`` repeats ``reference`` exactly (or a prefix of it)."""
    expected = list(reference[: len(values)]) if prefix else list(reference)
    if [float(v) for v in np.ravel(values)] != [float(v) for v in np.ravel(expected)]:
        failures.append(f"{what} differ between repeats of the same work")
