"""Transducer loss: lattice forward/backward recursions and logit gradients.

The loss of one sequence is -log of the total probability of all monotone
lattice paths that emit the label sequence and the closing blank. All
recursions run in log space. Two gradient paths are provided:

* ``grad_logits_merged`` writes the logit gradient directly over the
  posterior buffer (single lattice-sized tensor alive for the whole stage);
* ``grad_posterior`` + ``grad_logits_chain`` is the textbook two-step
  composition, kept as a reference path for tests and for the measured
  memory comparison (it allocates two extra lattice-sized tensors).

A path-enumeration oracle (``brute_force_loss``) validates the recursions on
small instances.
"""

from itertools import combinations

import numpy as np

from .joint import PackedLattice

BLANK = 0
NEG_INF = -np.inf


def validate_labels(labels, num_labels):
    for tok in labels:
        if not 1 <= int(tok) < num_labels:
            raise ValueError(f"label id {tok} outside [1, {num_labels - 1}] (blank is 0)")


class LossWorkspace:
    """Per-sequence lattices plus the shared in-place posterior/gradient buffer.

    The buffer starts life holding posteriors and is overwritten by the
    merged gradient; ``phase`` enforces the single-owner lifecycle.
    """

    def __init__(self, posteriors, labels_list):
        self.posteriors = posteriors
        self.labels_list = [list(map(int, ls)) for ls in labels_list]
        self.log_alpha = []
        self.log_beta = []
        self.log_like = []
        self.losses = None
        self.phase = "posterior"

    @property
    def loss_sum(self):
        return float(np.sum(self.losses))

    @property
    def loss_mean(self):
        return float(np.mean(self.losses))


def forward_backward(posteriors, labels_list, check_normalized=True):
    """Run both lattice recursions for every sequence in the packed batch.

    posteriors: PackedLattice of *linear* per-cell output distributions (the
    in-place softmax buffer); each row must sum to 1 within 1e-6
    (``check_normalized=False`` skips the check so tests can finite-
    difference the loss against raw posterior entries).
    labels_list: one label-id sequence per packed sequence (no blanks).
    Returns a LossWorkspace with per-sequence log-likelihoods and losses.
    """
    if posteriors.num_sequences != len(labels_list):
        raise ValueError("one label sequence required per packed sequence")
    ws = LossWorkspace(posteriors, labels_list)
    k = posteriors.width
    for n, labels in enumerate(ws.labels_list):
        t_n, u1_n = posteriors.dims[n]
        if len(labels) != u1_n - 1:
            raise ValueError(
                f"sequence {n}: lattice has {u1_n} label positions but {len(labels)} labels"
            )
        validate_labels(labels, k)
        block = posteriors.block(n)
        sums = block.sum(axis=-1)
        if check_normalized and np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ValueError(f"sequence {n}: posteriors are not normalized per (t, u)")
        la, lb, ll = _one_sequence(block, labels)
        ws.log_alpha.append(la)
        ws.log_beta.append(lb)
        ws.log_like.append(ll)
    ws.losses = np.array([-ll for ll in ws.log_like])
    return ws


def _one_sequence(block, labels):
    """Log-domain alpha/beta over one (T, U+1, K) probability block."""
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


def _beta_ext(lb, t, u):
    """Beta with the virtual exit cell: 1 past the final blank, 0 elsewhere."""
    t_n, u1_n = lb.shape
    if t == t_n and u == u1_n - 1:
        return 0.0
    if t >= t_n or u >= u1_n:
        return NEG_INF
    return lb[t, u]


def brute_force_loss(probs, labels):
    """Path-enumeration oracle: sum linear-domain probabilities of every
    monotone path through the (T, U+1) lattice, each ending with the closing
    blank. Independent of the recursions above."""
    probs = np.asarray(probs)
    t_n, u1_n, _ = probs.shape
    u_len = len(labels)
    if u_len != u1_n - 1:
        raise ValueError("label count must match lattice label positions")
    moves = t_n - 1 + u_len
    from math import comb

    if comb(moves, u_len) > 500_000:
        raise ValueError("instance too large to enumerate")
    total = 0.0
    count = 0
    for label_slots in combinations(range(moves), u_len):
        slots = set(label_slots)
        t = u = 0
        prob = 1.0
        for m in range(moves):
            if m in slots:
                prob *= probs[t, u, labels[u]]
                u += 1
            else:
                prob *= probs[t, u, BLANK]
                t += 1
        prob *= probs[t_n - 1, u_len, BLANK]
        total += prob
        count += 1
    assert count == comb(moves, u_len)
    return -np.log(total)


def grad_posterior(ws):
    """Loss gradient with respect to the linear posteriors (reference path).

    Nonzero only at the blank and next-label entries of each cell. Allocates
    a full lattice-sized tensor; part of the chain-rule reference, not the
    training path.
    """
    _require_posteriors(ws)
    post = ws.posteriors
    data = np.zeros_like(post.data)
    out = PackedLattice(data, post.dims)
    for n, labels in enumerate(ws.labels_list):
        la, lb, ll = ws.log_alpha[n], ws.log_beta[n], ws.log_like[n]
        t_n, u1_n = post.dims[n]
        block = out.block(n)
        for t in range(t_n):
            for u in range(u1_n):
                a = la[t, u]
                block[t, u, BLANK] = -np.exp(a + _beta_ext(lb, t + 1, u) - ll)
                if u < u1_n - 1:
                    block[t, u, labels[u]] = -np.exp(a + lb[t, u + 1] - ll)
    return out


def grad_logits_chain(ws):
    """Chain-rule reference: posterior gradient composed with the softmax
    Jacobian. Keeps three lattice-sized tensors alive (posteriors, posterior
    gradient, logit gradient)."""
    d_post = grad_posterior(ws)
    post = ws.posteriors
    inner = np.sum(d_post.data * post.data, axis=-1, keepdims=True)
    data = post.data * (d_post.data - inner)
    ws.phase = "gradient"
    return PackedLattice(data, post.dims)


def grad_logits_merged(ws):
    """Logit gradient written in place over the posterior buffer.

    Evaluates P * alpha/P(y|x) * [beta(t,u) - beta-of-target] directly, so
    the posterior-gradient tensor of the chain rule is never formed and no
    lattice-sized allocation happens here at all. After this call the
    workspace buffer holds gradients, not posteriors.
    """
    _require_posteriors(ws)
    post = ws.posteriors
    for n, labels in enumerate(ws.labels_list):
        la, lb, ll = ws.log_alpha[n], ws.log_beta[n], ws.log_like[n]
        t_n, u1_n = post.dims[n]
        block = post.block(n)
        for t in range(t_n):
            for u in range(u1_n):
                row = block[t, u]
                a = la[t, u]
                scale = np.exp(a + lb[t, u] - ll)
                corr_blank = row[BLANK] * np.exp(a + _beta_ext(lb, t + 1, u) - ll)
                if u < u1_n - 1:
                    y = labels[u]
                    corr_label = row[y] * np.exp(a + lb[t, u + 1] - ll)
                else:
                    y = None
                row *= scale
                row[BLANK] -= corr_blank
                if y is not None:
                    row[y] -= corr_label
    ws.phase = "gradient"
    return post


def _require_posteriors(ws):
    if ws.phase != "posterior":
        raise ValueError(
            "workspace buffer no longer holds posteriors; rerun the forward pass first"
        )
