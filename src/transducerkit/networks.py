"""Multi-layer recurrent networks for the encoder and prediction sides.

Three wirings per cell family:

* plain stack: each layer's output feeds the next layer's input;
* layer trajectory (lt): time cells do the temporal modeling per layer, and a
  second column of depth cells scans the per-frame time-cell outputs upward —
  depth cells carry no state across time, only up one column;
* contextual layer trajectory (clt/eclt): the depth-cell input from the layer
  below is replaced by a weighted combination of the next ``tau`` depth
  outputs, giving ``num_layers * tau`` frames of total lookahead. cltLSTM uses
  a matrix per offset, ecltGRU a vector (elementwise), and the network output
  is the combination at the top boundary.

Depth-cell wiring reuses the plain cells: the recurrent slot carries the
time-cell output at the same (frame, layer), the input slot carries the
depth output (or lookahead combination) from the layer below, and for LSTM
the memory-cell slot carries the depth memory from the layer below. All of
these exist for every frame before a depth layer runs, so a depth layer is
one row-parallel cell step over the whole sequence, not a time loop.
"""

from dataclasses import dataclass

import numpy as np

from .cells import CellState, LnGruCell, LnLstmCell, _uniform_init
from .tensor import DTYPE

CELL_KINDS = ("ln_lstm", "lt_lstm", "clt_lstm", "ln_gru", "lt_gru", "eclt_gru")
LSTM_KINDS = ("ln_lstm", "lt_lstm", "clt_lstm")
TRAJECTORY_KINDS = ("lt_lstm", "clt_lstm", "lt_gru", "eclt_gru")
CONTEXTUAL_KINDS = ("clt_lstm", "eclt_gru")


@dataclass
class NetConfig:
    """Shape of one recurrent network (encoder or prediction side)."""

    cell_kind: str
    num_layers: int
    hidden: int
    input_dim: int
    projection: int = 0
    tau: int = 0

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.cell_kind!r}; expected one of {CELL_KINDS}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden < 1 or self.input_dim < 1:
            raise ValueError("hidden and input_dim must be >= 1")
        if self.cell_kind in LSTM_KINDS:
            if not 1 <= self.projection <= self.hidden:
                raise ValueError("LSTM kinds need 1 <= projection <= hidden")
        elif self.projection:
            raise ValueError("projection only applies to LSTM kinds")
        if self.cell_kind in CONTEXTUAL_KINDS:
            if self.tau < 0:
                raise ValueError("tau must be >= 0")
        elif self.tau != 0:
            raise ValueError(f"tau must be 0 for non-contextual kind {self.cell_kind}")

    @property
    def out_dim(self):
        return self.projection if self.cell_kind in LSTM_KINDS else self.hidden

    @property
    def is_trajectory(self):
        return self.cell_kind in TRAJECTORY_KINDS

    @property
    def is_contextual(self):
        return self.cell_kind in CONTEXTUAL_KINDS

    @property
    def total_lookahead(self):
        """Total future frames the output at one frame may depend on."""
        return self.num_layers * self.tau


def stack_frames(feats, size=3, stride=3):
    """Stack consecutive feature rows into wider frames (zero-padded tail).

    feats: (T_raw, d) -> (ceil(T_raw/stride), size*d).
    """
    feats = np.asarray(feats, dtype=DTYPE)
    t_raw, d = feats.shape
    t_out = (t_raw + stride - 1) // stride
    out = np.zeros((t_out, size * d), dtype=DTYPE)
    for k in range(size):
        src = feats[k::stride]
        out[: src.shape[0], k * d : (k + 1) * d] = src
    return out


class SequenceNet:
    """One encoder- or prediction-side network per NetConfig."""

    def __init__(self, reg, prefix, cfg, rng):
        self.cfg = cfg
        self.prefix = prefix
        self.time_cells = []
        self.depth_cells = []
        self.ctx_weights = []  # per boundary, list of tau+1 Params
        out = cfg.out_dim
        for l in range(cfg.num_layers):
            in_dim = cfg.input_dim if l == 0 else out
            self.time_cells.append(self._make_cell(reg, f"{prefix}.l{l}.time", in_dim, rng))
            if cfg.is_trajectory:
                self.depth_cells.append(self._make_cell(reg, f"{prefix}.l{l}.depth", out, rng))
        if cfg.is_contextual:
            # Boundary l combines depth outputs of layer l. The present frame
            # (d=0) starts as the identity and every future offset (d>=1) at
            # 0.1 times it, so a fresh network already sees all
            # num_layers*tau future frames. The init draws nothing from the
            # RNG, and with tau=0 the network is bitwise the lt wiring.
            for l in range(cfg.num_layers):
                row = []
                for d in range(cfg.tau + 1):
                    name = f"{prefix}.l{l}.ctx{d}"
                    scale = 1.0 if d == 0 else 0.1
                    if cfg.cell_kind == "clt_lstm":
                        init = scale * np.eye(out, dtype=DTYPE)
                    else:
                        init = np.full(out, scale, dtype=DTYPE)
                    row.append(reg.add(name, init))
                self.ctx_weights.append(row)

    def _make_cell(self, reg, prefix, in_dim, rng):
        cfg = self.cfg
        if cfg.cell_kind in LSTM_KINDS:
            return LnLstmCell(reg, prefix, in_dim, cfg.hidden, cfg.projection, rng)
        return LnGruCell(reg, prefix, in_dim, cfg.hidden, rng)

    @property
    def out_dim(self):
        return self.cfg.out_dim

    # ----- full-sequence forward/backward (training path) -----

    def forward(self, xs):
        """Run the whole network over a sequence.

        xs: (T, input_dim) array. Returns (outputs (T, out_dim), cache).
        Time cells run their recurrence; each depth layer is one step of
        its cell over all T frames at once, since every slot it reads is
        known before it runs.
        """
        xs = np.asarray(xs, dtype=DTYPE)
        if xs.ndim != 2 or xs.shape[0] == 0:
            raise ValueError("forward needs a non-empty (T, input_dim) sequence")
        cfg = self.cfg
        hs, time_caches = [], []
        cur = xs
        for cell in self.time_cells:
            state, cache = cell.forward(cur, cell.initial_state())
            cur = state.h
            hs.append(cur)
            time_caches.append(cache)
        if not cfg.is_trajectory:
            return cur, ("stack", time_caches)
        gs, depth_caches = [], []
        below = np.zeros_like(cur)
        below_c = np.zeros((len(cur), cfg.hidden), dtype=DTYPE) if cfg.cell_kind in LSTM_KINDS else None
        for l, cell in enumerate(self.depth_cells):
            if l:
                below = self._ctx_combine(gs[-1], l - 1) if cfg.is_contextual else gs[-1]
            state, cache = cell.step(below, CellState(hs[l], below_c))
            below_c = state.c
            gs.append(state.h)
            depth_caches.append(cache)
        out = self._ctx_combine(gs[-1], cfg.num_layers - 1) if cfg.is_contextual else gs[-1]
        return out, ("traj", time_caches, depth_caches, gs)

    def _ctx_combine(self, g, l):
        """Lookahead combination at boundary l: out[t] = sum_d W_d g[t+d],
        with frames past the end taken as zero."""
        T = len(g)
        out = np.zeros_like(g)
        for d, w in enumerate(self.ctx_weights[l][:T]):
            w = w.value
            out[: T - d] += g[d:] @ w.T if w.ndim == 2 else g[d:] * w
        return out

    def _ctx_backward(self, d_out, g, l):
        T = len(g)
        d_g = np.zeros_like(g)
        for d, w in enumerate(self.ctx_weights[l][:T]):
            dz = d_out[: T - d]
            if w.value.ndim == 2:
                w.grad += dz.T @ g[d:]
                d_g[d:] += dz @ w.value
            else:
                w.grad += (dz * g[d:]).sum(axis=0)
                d_g[d:] += dz * w.value
        return d_g

    def backward(self, d_out, cache):
        """Propagate (T, out_dim) output gradients back to the inputs.

        Accumulates parameter gradients; returns (T, input_dim) input grads.
        """
        L = self.cfg.num_layers
        time_caches = cache[1]
        d_top = [None] * L  # gradient on each time layer's outputs, except from the layer above
        if cache[0] == "stack":
            d_top[-1] = d_out
        else:
            _, _, depth_caches, gs = cache
            d_g, d_c = d_out, None
            for l in range(L - 1, -1, -1):
                if self.cfg.is_contextual:
                    d_g = self._ctx_backward(d_g, gs[l], l)
                d_g, d_top[l], d_c = self.depth_cells[l].backward(d_g, d_c, depth_caches[l])
        d_below = None
        for l in range(L - 1, -1, -1):
            d_h = d_top[l] if d_below is None else (d_below if d_top[l] is None else d_top[l] + d_below)
            d_below, _, _ = self.time_cells[l].backward(d_h, None, time_caches[l])
        return d_below

    # ----- single-step path (decoding) -----

    def initial_state(self):
        """Per-layer time-cell states; depth cells are stateless across steps."""
        return [cell.initial_state() for cell in self.time_cells]

    def step(self, x, state):
        """Advance one frame/position. Returns (new_state, output vector).

        Same math as forward(), evaluated incrementally; only valid for
        non-contextual kinds (lookahead needs future frames).
        """
        if self.cfg.is_contextual:
            raise ValueError("contextual networks cannot be stepped frame by frame")
        new_state = []
        cur = np.asarray(x, dtype=DTYPE)
        for cell, st in zip(self.time_cells, state):
            st, _ = cell.step(cur, st)
            new_state.append(st)
            cur = st.h
        if not self.cfg.is_trajectory:
            return new_state, cur
        out = np.zeros(self.cfg.out_dim, dtype=DTYPE)
        below_c = np.zeros(self.cfg.hidden, dtype=DTYPE) if self.cfg.cell_kind in LSTM_KINDS else None
        for cell, st in zip(self.depth_cells, new_state):
            col, _ = cell.step(out, CellState(st.h, below_c))
            out, below_c = col.h, col.c
        return new_state, out


def expected_param_count(cfg):
    """Closed-form parameter count for one SequenceNet; must match the registry."""
    H, P = cfg.hidden, cfg.out_dim

    def lstm(in_dim):
        gates = 4 * (H * in_dim + H * P + H)  # wx, wh, b
        lns = 4 * 2 * H + 2 * H  # per-gate LN + cell LN
        return gates + lns + P * H

    def gru(in_dim):
        return 3 * (H * in_dim + H * H + H) + 3 * 2 * H

    cell = lstm if cfg.cell_kind in LSTM_KINDS else gru
    total = 0
    for l in range(cfg.num_layers):
        total += cell(cfg.input_dim if l == 0 else P)
        if cfg.is_trajectory:
            total += cell(P)
    if cfg.is_contextual:
        per_offset = P * P if cfg.cell_kind == "clt_lstm" else P
        total += cfg.num_layers * (cfg.tau + 1) * per_offset
    return total


class TokenEmbedding:
    """Learned lookup table; row 0 (blank) exists but is never consumed."""

    def __init__(self, reg, prefix, num_labels, dim, rng):
        self.num_labels = num_labels
        self.dim = dim
        self.table = reg.add(prefix + ".table", _uniform_init(rng, (num_labels, dim), dim))

    def lookup(self, token):
        if not 1 <= token < self.num_labels:
            raise ValueError(f"token id {token} outside [1, {self.num_labels - 1}]")
        return self.table.value[token]

    def accumulate(self, token, d_vec):
        self.table.grad[token] += d_vec


class PredictionNet:
    """Label-side network producing one output per consumed-prefix length.

    Output u encodes the prefix y_1..y_u; position 0 starts from the all-zero
    embedding. Contextual kinds are rejected (label lookahead is meaningless).
    """

    def __init__(self, reg, prefix, cfg, num_labels, rng):
        if cfg.is_contextual:
            raise ValueError("contextual cell kinds are only valid for the encoder")
        self.cfg = cfg
        self.embedding = TokenEmbedding(reg, prefix + ".embed", num_labels, cfg.input_dim, rng)
        self.net = SequenceNet(reg, prefix + ".net", cfg, rng)

    @property
    def out_dim(self):
        return self.net.out_dim

    def _embed_sequence(self, labels):
        xs = np.zeros((len(labels) + 1, self.cfg.input_dim), dtype=DTYPE)
        for u, tok in enumerate(labels):
            xs[u + 1] = self.embedding.lookup(int(tok))
        return xs

    def forward(self, labels):
        """labels: non-blank token ids. Returns ((U+1, out_dim), cache)."""
        xs = self._embed_sequence(labels)
        outs, net_cache = self.net.forward(xs)
        return outs, (tuple(int(t) for t in labels), net_cache)

    def backward(self, d_out, cache):
        labels, net_cache = cache
        d_xs = self.net.backward(d_out, net_cache)
        for u, tok in enumerate(labels):
            self.embedding.accumulate(tok, d_xs[u + 1])

    def initial_state(self):
        return self.net.initial_state()

    def step(self, state, token=None):
        """Advance by one token (None = the start position's zero embedding)."""
        x = (
            np.zeros(self.cfg.input_dim, dtype=DTYPE)
            if token is None
            else self.embedding.lookup(int(token))
        )
        return self.net.step(x, state)
