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
the memory-cell slot carries the depth memory from the layer below.

A minibatch runs as one packed, length-sorted array of rows
(``packing.Packing``): a time layer is one recurrence over every sequence,
and a depth layer or context boundary one row-parallel pass over every
frame. One sequence is the N=1 case.
"""

from dataclasses import dataclass

import numpy as np

from .cells import CellState, LnGruCell, LnLstmCell
from .packing import single
from .tensor import DTYPE, uniform_init

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


def stack_frames(feats, size):
    """Stack runs of ``size`` consecutive feature rows into wider frames (zero-padded tail).

    feats: (T_raw, d) -> (ceil(T_raw/size), size*d).
    """
    feats = np.asarray(feats, dtype=DTYPE)
    t_raw, d = feats.shape
    out = np.zeros((-(-t_raw // size) * size, d), dtype=DTYPE)
    out[:t_raw] = feats
    return out.reshape(-1, size * d)


class SequenceNet:
    """One encoder- or prediction-side network per NetConfig."""

    def __init__(self, reg, prefix, cfg, rng):
        self.cfg = cfg
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

    def forward(self, xs, pack=None):
        """Run the network over the rows ``xs (R, input_dim)`` of a minibatch
        laid out by ``pack`` (None: one sequence). Returns (outputs
        (R, out_dim) in that layout, cache). A depth layer is one step of
        its cell over all rows, since every slot it reads is known."""
        xs = np.asarray(xs, dtype=DTYPE)
        if xs.ndim != 2:
            raise ValueError("forward needs a (rows, input_dim) array")
        pack = single(len(xs)) if pack is None else pack
        cfg = self.cfg
        hs, time_caches = [], []
        cur = xs
        for cell in self.time_cells:
            state, cache = cell.forward(cur, pack)
            cur = state.h
            hs.append(cur)
            time_caches.append(cache)
        if not cfg.is_trajectory:
            return cur, (pack, time_caches, None, None)
        gs, depth_caches = [], []
        below = np.zeros_like(cur)
        below_c = np.zeros((len(cur), cfg.hidden), dtype=DTYPE) if cfg.cell_kind in LSTM_KINDS else None
        for l, cell in enumerate(self.depth_cells):
            if l:
                below = self._ctx_combine(gs[-1], l - 1, pack) if cfg.is_contextual else gs[-1]
            state, cache = cell.step(below, CellState(hs[l], below_c))
            below_c = state.c
            gs.append(state.h)
            depth_caches.append(cache)
        out = self._ctx_combine(gs[-1], cfg.num_layers - 1, pack) if cfg.is_contextual else gs[-1]
        return out, (pack, time_caches, depth_caches, gs)

    def _ctx_combine(self, g, l, pack):
        """Lookahead combination at boundary l: out[t] = sum_d W_d g[t+d]
        within each sequence, with frames past its end taken as zero."""
        out = np.zeros_like(g)
        for d, w in enumerate(self.ctx_weights[l]):
            dst, src = pack.shift(d)
            w = w.value
            out[dst] += g[src] @ w.T if w.ndim == 2 else g[src] * w
        return out

    def _ctx_backward(self, d_out, g, l, pack):
        d_g = np.zeros_like(g)
        for d, w in enumerate(self.ctx_weights[l]):
            dst, src = pack.shift(d)
            dz = d_out[dst]
            if w.value.ndim == 2:
                w.grad += dz.T @ g[src]
                d_g[src] += dz @ w.value
            else:
                w.grad += (dz * g[src]).sum(axis=0)
                d_g[src] += dz * w.value
        return d_g

    def backward(self, d_out, cache):
        """Output gradients (R, out_dim) -> input gradients (R, input_dim),
        in the forward's row layout; accumulates parameter gradients."""
        pack, time_caches, depth_caches, gs = cache
        L = self.cfg.num_layers
        d_top = [None] * L  # gradient on each time layer's outputs, except from the layer above
        if depth_caches is None:
            d_top[-1] = d_out
        else:
            d_g, d_c = d_out, None
            for l in range(L - 1, -1, -1):
                if self.cfg.is_contextual:
                    d_g = self._ctx_backward(d_g, gs[l], l, pack)
                d_g, d_top[l], d_c = self.depth_cells[l].backward(d_g, d_c, depth_caches[l])
        d_below = None
        for l in range(L - 1, -1, -1):
            d_h = d_top[l] if d_below is None else (d_below if d_top[l] is None else d_top[l] + d_below)
            d_below, _, _ = self.time_cells[l].backward(d_h, None, time_caches[l])
        return d_below


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


class PredictionNet:
    """Label-side plain ``ln_lstm``/``ln_gru`` stack, one output per consumed-prefix length.

    Output u encodes the prefix y_1..y_u; position 0 starts from the all-zero
    embedding. ``table`` is the learned token embedding; its row 0 (blank)
    exists but is never consumed.
    """

    def __init__(self, reg, prefix, cfg, num_labels, rng):
        if cfg.is_trajectory:
            raise ValueError(f"prediction cell kind {cfg.cell_kind!r}: "
                             "trajectory and contextual kinds are only valid for the encoder")
        self.cfg = cfg
        self.num_labels = num_labels
        dim = cfg.input_dim
        self.table = reg.add(prefix + ".embed.table", uniform_init(rng, (num_labels, dim), dim))
        self.net = SequenceNet(reg, prefix + ".net", cfg, rng)

    @property
    def out_dim(self):
        return self.net.out_dim

    def _token_error(self, token):
        return ValueError(f"token id {token} outside [1, {self.num_labels - 1}]")

    def forward(self, labels, pack=None):
        """labels: one sequence of non-blank token ids, or with ``pack`` (the
        Packing of their U_n+1 positions) a minibatch's sequences in batch
        order. Returns ((rows, out_dim) in the packing's layout, cache)."""
        seqs = [np.asarray(l, dtype=np.intp) for l in ([labels] if pack is None else labels)]
        flat = np.concatenate(seqs)
        outside = (flat < 1) | (flat >= self.num_labels)
        if outside.any():
            raise self._token_error(flat[outside][0])
        pack = single(len(flat) + 1) if pack is None else pack
        label_rows = np.delete(pack.rows, np.concatenate(([0], pack.splits)))
        xs = np.zeros((len(pack.rows), self.cfg.input_dim), dtype=DTYPE)
        xs[label_rows] = self.table.value[flat]
        outs, net_cache = self.net.forward(xs, pack)
        return outs, ((flat, label_rows), net_cache)

    def backward(self, d_out, cache):
        (flat, label_rows), net_cache = cache
        d_xs = self.net.backward(d_out, net_cache)
        # unbuffered: a repeated token accumulates its rows in batch, then label, order
        np.add.at(self.table.grad, flat, d_xs[label_rows])

    def initial_state(self):
        return [cell.initial_state() for cell in self.net.time_cells]

    def step(self, state, token=None):
        """Advance by one token (None = the start position's zero embedding):
        one step of each layer's time cell. Returns (new_state, top output)."""
        if token is None:
            cur = np.zeros(self.cfg.input_dim, dtype=DTYPE)
        else:
            token = int(token)
            if not 1 <= token < self.num_labels:
                raise self._token_error(token)
            cur = self.table.value[token]
        new_state = []
        for cell, st in zip(self.net.time_cells, state):
            st, _ = cell.step(cur, st)
            new_state.append(st)
            cur = st.h
        return new_state, cur
