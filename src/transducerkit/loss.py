"""Transducer loss: lattice forward/backward recursions and logit gradients.

The loss of one sequence is -log of the total probability of all monotone
lattice paths that emit the label sequence and the closing blank. All
recursions run in log space, as one anti-diagonal wavefront over every
sequence of the batch (Bagby et al., Interspeech 2018). Two gradient paths:

* ``grad_logits_merged`` writes the logit gradient directly over the whole
  posterior buffer (single lattice-sized tensor alive for the whole stage);
* ``grad_posterior`` + ``grad_logits_chain`` is the textbook two-step
  composition, kept as a per-cell reference path for tests and for the
  measured memory comparison (two extra lattice-sized tensors).

A path-enumeration oracle (``brute_force_loss``) validates the recursions.
"""

from itertools import combinations
from math import comb

import numpy as np

from .joint import PackedLattice

BLANK = 0
NEG_INF = -np.inf


class LossWorkspace:
    """Lattices, log-likelihoods and the shared in-place posterior/gradient buffer.

    ``log_alpha[n]``/``log_beta[n]`` are (T_n, U_n+1) views of the per-row
    ``log_alpha_rows``/``log_beta_rows``. The buffer holds posteriors until
    the merged gradient overwrites it; ``phase`` enforces that lifecycle.
    """

    def __init__(self, posteriors, labels_list):
        self.posteriors = posteriors
        self.labels_list = [list(map(int, ls)) for ls in labels_list]
        self.log_alpha_rows = self.log_beta_rows = None
        self.log_alpha, self.log_beta, self.log_like = [], [], []
        self.losses = None
        self.phase = "posterior"
        # per row: label id (blank on the closing column), beta after its
        # blank and beta after its label; consumed by grad_logits_merged
        self._merge_rows = None

    @property
    def loss_mean(self):
        return float(np.mean(self.losses))


def forward_backward(posteriors, labels_list):
    """Run both lattice recursions for every sequence in the packed batch.

    posteriors: PackedLattice of *linear* per-cell output distributions (the
    in-place softmax buffer); each row must sum to 1 within 1e-6.
    labels_list: one label-id sequence per packed sequence (no blanks).
    Returns a LossWorkspace with per-sequence log-likelihoods and losses.
    """
    if posteriors.num_sequences != len(labels_list):
        raise ValueError("one label sequence required per packed sequence")
    ws = LossWorkspace(posteriors, labels_list)
    dims = np.array(posteriors.dims, dtype=np.intp).reshape(-1, 2)
    t_len, u1_len = dims[:, 0], dims[:, 1]
    table = np.zeros((len(dims), np.max(u1_len, initial=1)), dtype=np.intp)
    for n, labels in enumerate(ws.labels_list):
        if len(labels) != u1_len[n] - 1:
            raise ValueError(f"sequence {n}: lattice has {u1_len[n]} label positions "
                             f"but {len(labels)} labels")
        for tok in labels:
            if not 1 <= tok < posteriors.width:
                raise ValueError(f"label id {tok} outside [1, {posteriors.width - 1}] (blank is 0)")
        table[n, : len(labels)] = labels

    # packed-row geometry: sequence, frame t, label position u, label id
    sizes = t_len * u1_len
    seq = np.repeat(np.arange(len(dims)), sizes)
    rows = np.arange(len(seq))
    t, u = np.divmod(rows - np.repeat(posteriors.offsets, sizes), u1_len[seq])
    label = table[seq, u]
    data = posteriors.data
    bad = np.flatnonzero(np.abs(data.sum(axis=-1) - 1.0) > 1e-6)
    if bad.size:
        raise ValueError(f"sequence {seq[bad[0]]}: posteriors are not normalized per (t, u)")
    with np.errstate(divide="ignore"):
        lp_blank = np.log(data[:, BLANK])
        lp_label = np.log(data[rows, label])
    lp_label[u == u1_len[seq] - 1] = NEG_INF  # the closing column emits no label

    # skewed (sequence, diagonal, 1 + position) storage, column 0 padding
    shape = (len(dims), np.max(t_len + u1_len, initial=1), np.max(u1_len, initial=0) + 2)

    def skew(diag, col, values):
        out = np.full(shape, NEG_INF)
        out[seq, diag, col] = values
        return out

    # alpha(t, u) sits at (t+u, u+1); a log-prob is stored where it is
    # consumed: a blank by cell (t+1, u), a label by cell (t, u+1)
    diag, col = t + u + 1, u + 1
    alpha = _wavefront(skew(diag, col, lp_blank), skew(diag, col + 1, lp_label))[seq, diag - 1, col]
    # beta runs on the reversed lattice t' = T_n-1-t, u' = U_n-u: beta(t, u)
    # sits at (t'+u'+1, u'+1) beside its own log-probs, and the exit
    # beta(T_n, U_n) = 0 of every sequence is the start cell (0, 1)
    np.subtract((t_len + u1_len)[seq], diag, out=diag)
    np.subtract(u1_len[seq], u, out=col)
    del t, u  # peak memory stays a few (rows,) vectors
    beta_ext = _wavefront(skew(diag, col, lp_blank), skew(diag, col, lp_label))
    del lp_blank, lp_label  # likewise, before the per-row gathers
    beta = beta_ext[seq, diag, col]
    ws._merge_rows = (label, beta_ext[seq, diag - 1, col], beta_ext[seq, diag - 1, col - 1])

    ws.log_alpha_rows, ws.log_beta_rows = alpha, beta
    bounds = np.cumsum(sizes)[:-1]
    ws.log_alpha = [a.reshape(d) for a, d in zip(np.split(alpha, bounds), posteriors.dims)]
    ws.log_beta = [b.reshape(d) for b, d in zip(np.split(beta, bounds), posteriors.dims)]
    ws.log_like = beta[posteriors.offsets].tolist()
    ws.losses = np.array([-ll for ll in ws.log_like])
    return ws


def _wavefront(blank, label):
    """Log-domain lattice recursion over skewed (N, D, W) storage from the
    start cell (0, 1) = 0: cell (d, c) = logaddexp(cell(d-1, c) + blank[d, c],
    cell(d-1, c-1) + label[d, c]), one vector step per diagonal for every
    sequence at once. Lattice edges read -inf padding and logaddexp(x, -inf)
    is exactly x, so every lattice cell is bitwise the scalar recursion's."""
    out = np.full(blank.shape, NEG_INF)
    out[:, 0, 1] = 0.0
    for d in range(1, out.shape[1]):
        prev = out[:, d - 1]
        np.logaddexp(prev[:, 1:] + blank[:, d, 1:], prev[:, :-1] + label[:, d, 1:], out=out[:, d, 1:])
    return out


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
    if comb(moves, u_len) > 500_000:
        raise ValueError("instance too large to enumerate")
    total = 0.0
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
        total += prob * probs[t_n - 1, u_len, BLANK]
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
        la, ll = ws.log_alpha[n], ws.log_like[n]
        t_n, u1_n = post.dims[n]
        # beta with the virtual exit cell: 1 past the final blank, 0 elsewhere
        lb = np.full((t_n + 1, u1_n + 1), NEG_INF)
        lb[:t_n, :u1_n] = ws.log_beta[n]
        lb[t_n, u1_n - 1] = 0.0
        block = out.block(n)
        for t in range(t_n):
            for u in range(u1_n):
                a = la[t, u]
                block[t, u, BLANK] = -np.exp(a + lb[t + 1, u] - ll)
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

    Evaluates P * alpha/P(y|x) * [beta(t,u) - beta-of-target] directly: each
    row is scaled by exp(alpha + beta - log P(y|x)), then its blank and label
    corrections are subtracted. No posterior-gradient tensor and no
    lattice-sized allocation. Afterwards the buffer holds gradients.
    """
    _require_posteriors(ws)
    data = ws.posteriors.data
    label, after_blank, after_label = ws._merge_rows
    ws._merge_rows = None
    log_like = np.repeat(ws.log_like, [t_n * u1_n for t_n, u1_n in ws.posteriors.dims])

    def weight(beta_next):
        out = ws.log_alpha_rows + beta_next
        out -= log_like
        return np.exp(out, out=out)

    rows = np.arange(len(data))
    scale = weight(ws.log_beta_rows)
    corr_blank = weight(after_blank)
    corr_blank *= data[:, BLANK]
    # a closing-column row has label id 0 and after_label -inf: its label
    # correction is +0.0 and leaves the blank entry bitwise unchanged
    corr_label = weight(after_label)
    corr_label *= data[rows, label]
    del log_like
    # numpy gives a broadcasting ufunc a buffer of min(bufsize, size) items
    # (8192 by default: all of a small lattice); one row keeps this in place
    bufsize = np.setbufsize(-(-data.shape[1] // 16) * 16)
    try:
        data *= scale[:, None]
    finally:
        np.setbufsize(bufsize)
    data[:, BLANK] -= corr_blank
    data[rows, label] -= corr_label
    ws.phase = "gradient"
    return ws.posteriors


def _require_posteriors(ws):
    if ws.phase != "posterior":
        raise ValueError("workspace buffer no longer holds posteriors; rerun the forward pass first")
