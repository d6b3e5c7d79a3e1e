"""Scalar per-cell transducer loss: the oracle for the vectorized kernels.

These are the recursions and the merged gradient as one Python step per
lattice cell, as ``transducerkit.loss`` computed them before the wavefront.
``transducerkit.loss.forward_backward`` and ``grad_logits_merged`` must agree
with them bitwise: every cell there evaluates the same expressions on the
same operands.
"""

import numpy as np

BLANK = 0
NEG_INF = -np.inf


def one_sequence(block, labels):
    """Log-domain alpha/beta over one (T, U+1, K) probability block.

    Returns (log_alpha, log_beta, log_likelihood)."""
    t_n, u1_n, _ = block.shape
    u_len = u1_n - 1
    with np.errstate(divide="ignore"):
        lp_blank = np.log(block[:, :, BLANK])
        lp_label = np.full((t_n, u1_n), NEG_INF)
        if u_len:
            lp_label[:, :u_len] = np.log(
                block[:, np.arange(u_len), np.array(labels, dtype=np.intp)]
            )

    la = np.full((t_n, u1_n), NEG_INF)
    la[0, 0] = 0.0
    for u in range(1, u1_n):
        la[0, u] = la[0, u - 1] + lp_label[0, u - 1]
    for t in range(1, t_n):
        la[t, 0] = la[t - 1, 0] + lp_blank[t - 1, 0]
        for u in range(1, u1_n):
            la[t, u] = np.logaddexp(
                la[t - 1, u] + lp_blank[t - 1, u], la[t, u - 1] + lp_label[t, u - 1]
            )

    lb = np.full((t_n, u1_n), NEG_INF)
    lb[t_n - 1, u_len] = lp_blank[t_n - 1, u_len]
    for u in range(u_len - 1, -1, -1):
        lb[t_n - 1, u] = lp_label[t_n - 1, u] + lb[t_n - 1, u + 1]
    for t in range(t_n - 2, -1, -1):
        lb[t, u_len] = lp_blank[t, u_len] + lb[t + 1, u_len]
        for u in range(u_len - 1, -1, -1):
            lb[t, u] = np.logaddexp(
                lp_blank[t, u] + lb[t + 1, u], lp_label[t, u] + lb[t, u + 1]
            )
    return la, lb, float(lb[0, 0])


def beta_ext(lb, t, u):
    """Beta with the virtual exit cell: 1 past the final blank, 0 elsewhere."""
    t_n, u1_n = lb.shape
    if t == t_n and u == u1_n - 1:
        return 0.0
    if t >= t_n or u >= u1_n:
        return NEG_INF
    return lb[t, u]


def forward_backward(posteriors, labels_list):
    """Per-sequence (log_alpha, log_beta, log_likelihood) of a PackedLattice."""
    return [
        one_sequence(posteriors.block(n), [int(y) for y in labels])
        for n, labels in enumerate(labels_list)
    ]


def merged_gradient(posteriors, labels_list, lattices):
    """Per-cell merged logit gradient, written in place over ``posteriors``.

    ``lattices`` is ``forward_backward``'s output for the same posteriors.
    """
    for n, labels in enumerate(labels_list):
        la, lb, ll = lattices[n]
        t_n, u1_n = posteriors.dims[n]
        block = posteriors.block(n)
        for t in range(t_n):
            for u in range(u1_n):
                row = block[t, u]
                a = la[t, u]
                scale = np.exp(a + lb[t, u] - ll)
                corr_blank = row[BLANK] * np.exp(a + beta_ext(lb, t + 1, u) - ll)
                if u < u1_n - 1:
                    y = int(labels[u])
                    corr_label = row[y] * np.exp(a + lb[t, u + 1] - ll)
                else:
                    y = None
                row *= scale
                row[BLANK] -= corr_blank
                if y is not None:
                    row[y] -= corr_label
    return posteriors
