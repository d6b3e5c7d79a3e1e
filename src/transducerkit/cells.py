"""Layer-normalized recurrent cells with fused gates and hand-written backward passes.

Two cells: an LSTM with per-gate layer norm, a normalized cell output, and a
linear projection feeding both the layer above and the recurrence; and a GRU
with per-gate layer norm and no projection.

Each cell stacks its G gates (4 LSTM, 3 GRU) into one ``wx (G*H, in)``,
``wh (G*H, rec)``, ``b``, ``ln_gain`` and ``ln_bias``, sigmoid gates first and
the tanh candidate last: LSTM rows are in, forget, out, candidate; GRU rows
are update, reset, candidate. Per-gate layer norm normalizes a ``(..., G, H)``
view over its last axis.

``step(x, prev)`` advances every row of ``x`` by one step from the matching
row of ``prev`` (rows are independent: one frame, or a whole depth column).
``forward(X, pack)`` runs the recurrence over a packed minibatch
(``packing.Packing``): one input projection, then one step per time index
over the sequences still running. ``backward`` reverses either; parameter
gradients accumulate into the ParamRegistry as one matrix product each.
"""

import numpy as np

from .tensor import DTYPE, fill_uniform, layer_norm_bwd, layer_norm_fwd, sigmoid, uniform_init

LN_EPSILON = 1e-5
_SEQUENCE = "sequence"  # tags a forward() cache; step() caches are plain tuples


class CellState:
    """Recurrent state: hidden/output vector ``h`` and memory cell ``c`` (LSTM only)."""

    __slots__ = ("h", "c")

    def __init__(self, h, c=None):
        self.h = h
        self.c = c


def _rows2(a):
    """View of a single row or a block of rows as a 2-D block."""
    return a.reshape(-1, a.shape[-1])


class _FusedCell:
    """Stacked gate parameters plus the sequence drivers shared by both cells.

    Subclasses provide ``_rows(xw, x, prev)`` (one step from the input
    projection ``xw = x @ wx.T + b``), ``_chain(d_h, d_c, cache)`` (the
    per-row backward up to the gate pre-activations) and ``_finish(grads,
    cache)`` (parameter gradients and the input gradient). Some parameters
    are read through views taken at construction (stacked gains and biases,
    GRU row blocks); they stay valid because parameters change in place.
    """

    def _add_gates(self, reg, prefix, in_dim, rec_dim, rng, draw_rows):
        """Register the stacked gate parameters. ``draw_rows`` gives each
        gate's row block in the order the gates draw from ``rng``."""
        H = self.hidden
        G = len(draw_rows)
        wx = np.empty((G * H, in_dim), dtype=DTYPE)
        wh = np.empty((G * H, rec_dim), dtype=DTYPE)
        for g in draw_rows:
            fill_uniform(rng, wx[g * H : (g + 1) * H], in_dim)
            fill_uniform(rng, wh[g * H : (g + 1) * H], rec_dim)
        self.wx = reg.add(prefix + ".wx", wx)
        self.wh = reg.add(prefix + ".wh", wh)
        self.b = reg.add(prefix + ".b", np.zeros(G * H, dtype=DTYPE))
        self.ln_gain = reg.add(prefix + ".ln_gain", np.ones(G * H, dtype=DTYPE))
        self.ln_bias = reg.add(prefix + ".ln_bias", np.zeros(G * H, dtype=DTYPE))
        self._gain = self.ln_gain.value.reshape(G, H)
        self._bias = self.ln_bias.value.reshape(G, H)

    def _accumulate(self, gates, d_a, d_s, vhat, x):
        """Gradients of wx, b and the layer norms of the stacked rows
        ``gates``; returns the input gradient through those rows."""
        d_a2 = _rows2(d_a)
        d_s = d_s.reshape(d_a2.shape)
        self.wx.grad[gates] += d_a2.T @ _rows2(x)
        self.b.grad[gates] += d_a2.sum(axis=0)
        self.ln_gain.grad[gates] += (d_s * vhat.reshape(d_a2.shape)).sum(axis=0)
        self.ln_bias.grad[gates] += d_s.sum(axis=0)
        return d_a @ self.wx.value[gates]

    def step(self, x, prev):
        """One step for each row of ``x``; returns (CellState, cache)."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"{self.state_kind} input dim {x.shape[-1]} != {self.input_dim}")
        return self._rows(x @ self.wx.value.T + self.b.value, x, prev)

    def forward(self, xs, pack):
        """Run the recurrence from zero states over the packed rows ``xs (R,
        input_dim)``; returns (CellState of (R, .) outputs, cache). The state
        arrays put ``n0`` zero initial states before the packed rows. Only the
        states are kept: backward recomputes every step's cache at once."""
        if xs.shape[-1] != self.input_dim:
            raise ValueError(f"{self.state_kind} input dim {xs.shape[-1]} != {self.input_dim}")
        n0 = pack.sizes[0]
        xw = xs @ self.wx.value.T + self.b.value
        hs = np.zeros((n0 + len(xs), self.out_dim), dtype=DTYPE)
        cs = np.zeros((n0 + len(xs), self.hidden), dtype=DTYPE) if self.state_kind == "lstm" else None
        for prev, cur, row in pack.steps:
            self._rows(xw[row], None, CellState(hs[prev], None if cs is None else cs[prev]),
                       hs[cur], None if cs is None else cs[cur])
        return CellState(hs[n0:], None if cs is None else cs[n0:]), (_SEQUENCE, xs, pack, hs, cs)

    def backward(self, d_h, d_c, cache):
        """Reverse of step() or forward(). Returns (d_x, d_h_prev, d_c_prev),
        per row; for forward(), d_x per packed row, the gradients on the zero
        initial states, and ``d_c`` unused. ``d_c`` may be None."""
        if cache is None:
            raise ValueError(f"{self.state_kind} backward called without a forward cache")
        if cache[0] is not _SEQUENCE:
            d_h_prev, d_c_prev, grads = self._chain(d_h, d_c, cache)
            return self._finish(grads, cache), d_h_prev, d_c_prev
        _, xs, pack, hs, cs = cache
        n0 = pack.sizes[0]
        # every step's cache at once: one row-parallel step from the stored states
        fields = self._rows(xs @ self.wx.value.T + self.b.value, xs,
                            CellState(hs[pack.prev_rows], None if cs is None else cs[pack.prev_rows]))[1]
        # each step adds its previous-state gradients into the rows it read
        d_hs = np.zeros_like(hs)
        d_hs[n0:] = d_h
        d_cs = None if cs is None else np.zeros_like(cs)
        grads = None
        for prev, cur, row in reversed(pack.steps):
            step = tuple(None if f is None else f[row] for f in fields)
            d_h_prev, d_c_prev, g = self._chain(d_hs[cur], None if cs is None else d_cs[cur], step)
            d_hs[prev] += d_h_prev
            if cs is not None:
                d_cs[prev] = d_c_prev
            if grads is None:
                # a one-row step (int index) gives vectors, with no row axis to drop
                grads = [np.empty((len(xs),) + a.shape[isinstance(row, slice):], dtype=DTYPE) for a in g]
            for buf, a in zip(grads, g):
                buf[row] = a
        return self._finish(grads, fields), d_hs[:n0], None if cs is None else d_cs[:n0]


class LnLstmCell(_FusedCell):
    """Layer-normalized LSTM with a projection layer.

    Gates read the input and the *projected* previous output; the memory
    cell is ``hidden``-dim, the output is ``proj``-dim (proj <= hidden).
    The cell state is normalized before the output tanh.
    """

    state_kind = "lstm"
    gates = ("in", "forget", "out", "cand")  # stacked row order

    def __init__(self, reg, prefix, input_dim, hidden, proj, rng):
        if proj > hidden:
            raise ValueError(f"projection dim {proj} must be <= hidden dim {hidden}")
        self.input_dim = input_dim
        self.hidden = hidden
        self.proj = proj
        # Gates draw in, forget, cand, out, as the per-gate layout did, so a
        # seed gives the same initial values; rows put the sigmoid gates first.
        self._add_gates(reg, prefix, input_dim, proj, rng, draw_rows=(0, 1, 3, 2))
        # Forget bias +1 goes on both b and the LN bias: a constant vector
        # added inside LN is removed by mean-centering, so only the LN bias
        # actually shifts the gate.
        self.b.value[hidden : 2 * hidden] = 1.0
        self.ln_bias.value[hidden : 2 * hidden] = 1.0
        self.cell_gain = reg.add(prefix + ".cell_ln_gain", np.ones(hidden, dtype=DTYPE))
        self.cell_bias = reg.add(prefix + ".cell_ln_bias", np.zeros(hidden, dtype=DTYPE))
        self.w_proj = reg.add(prefix + ".w_proj", uniform_init(rng, (proj, hidden), hidden))

    def initial_state(self):
        return CellState(np.zeros(self.proj, dtype=DTYPE), np.zeros(self.hidden, dtype=DTYPE))

    def _rows(self, xw, x, prev, out=None, c_out=None):
        h_prev, c_prev = prev.h, prev.c
        a = h_prev @ self.wh.value.T
        a += xw
        s, (vhat, inv_sigma) = layer_norm_fwd(a.reshape(a.shape[:-1] + (4, self.hidden)),
                                              self._gain, self._bias, LN_EPSILON)
        sg = sigmoid(s[..., :3, :])
        cand = np.tanh(s[..., 3, :])
        c = np.add(sg[..., 1, :] * c_prev, sg[..., 0, :] * cand, out=c_out)
        cn, (vhat_c, inv_c) = layer_norm_fwd(c, self.cell_gain.value, self.cell_bias.value, LN_EPSILON)
        tc = np.tanh(cn)
        h = np.matmul(sg[..., 2, :] * tc, self.w_proj.value.T, out=out)
        return CellState(h, c), (x, h_prev, c_prev, sg, cand, vhat, inv_sigma, vhat_c, inv_c, tc)

    def _chain(self, d_h, d_c, cache):
        _, _, c_prev, sg, cand, vhat, inv_sigma, vhat_c, inv_c, tc = cache
        d_q = d_h @ self.w_proj.value
        d_cn = d_q * sg[..., 2, :] * (1.0 - tc * tc)
        d_ct = layer_norm_bwd(d_cn, self.cell_gain.value, (vhat_c, inv_c))
        if d_c is not None:
            d_ct += d_c
        d_s = np.empty_like(vhat)
        d_s[..., 0, :] = d_ct * cand
        d_s[..., 1, :] = d_ct * c_prev
        d_s[..., 2, :] = d_q * tc
        d_s[..., :3, :] *= sg * (1.0 - sg)
        d_s[..., 3, :] = d_ct * sg[..., 0, :] * (1.0 - cand * cand)
        d_a = layer_norm_bwd(d_s, self._gain, (vhat, inv_sigma))
        d_a = d_a.reshape(d_a.shape[:-2] + (-1,))
        return d_a @ self.wh.value, d_ct * sg[..., 1, :], (d_a, d_s, d_cn, d_h)

    def _finish(self, grads, cache):
        d_a, d_s, d_cn, d_h = grads
        x, h_prev, _, sg, _, vhat, _, vhat_c, _, tc = cache
        self.wh.grad += _rows2(d_a).T @ _rows2(h_prev)
        self.w_proj.grad += _rows2(d_h).T @ _rows2(sg[..., 2, :] * tc)
        d_cn = _rows2(d_cn)
        self.cell_gain.grad += (d_cn * _rows2(vhat_c)).sum(axis=0)
        self.cell_bias.grad += d_cn.sum(axis=0)
        return self._accumulate(slice(None), d_a, d_s, vhat, x)

    @property
    def out_dim(self):
        return self.proj


class LnGruCell(_FusedCell):
    """Layer-normalized GRU: update/reset gates, candidate with the reset
    applied to the previous state inside the recurrent product, output
    interpolated as z*prev + (1-z)*candidate. No projection."""

    state_kind = "gru"
    gates = ("update", "reset", "cand")  # stacked row order

    def __init__(self, reg, prefix, input_dim, hidden, rng):
        self.input_dim = input_dim
        self.hidden = hidden
        self._add_gates(reg, prefix, input_dim, hidden, rng, draw_rows=(0, 1, 2))
        wh = self.wh.value
        self._wh_zr, self._wh_h = wh[: 2 * hidden], wh[2 * hidden :]

    def initial_state(self):
        return CellState(np.zeros(self.hidden, dtype=DTYPE))

    def _rows(self, xw, x, prev, out=None, c_out=None):
        H = self.hidden
        h_prev = prev.h
        a = h_prev @ self._wh_zr.T
        a += xw[..., : 2 * H]
        s, (vhat_zr, inv_zr) = layer_norm_fwd(a.reshape(a.shape[:-1] + (2, H)),
                                              self._gain[:2], self._bias[:2], LN_EPSILON)
        zr = sigmoid(s)
        z = zr[..., 0, :]
        a = (zr[..., 1, :] * h_prev) @ self._wh_h.T
        a += xw[..., 2 * H :]
        s, (vhat_h, inv_h) = layer_norm_fwd(a, self._gain[2], self._bias[2], LN_EPSILON)
        hbar = np.tanh(s)
        h = np.add(z * h_prev, (1.0 - z) * hbar, out=out)
        return CellState(h), (x, h_prev, None, zr, hbar, vhat_zr, inv_zr, vhat_h, inv_h)

    def _chain(self, d_h, d_c, cache):
        _, h_prev, _, zr, hbar, vhat_zr, inv_zr, vhat_h, inv_h = cache
        z = zr[..., 0, :]
        d_s_h = d_h * (1.0 - z) * (1.0 - hbar * hbar)
        d_a_h = layer_norm_bwd(d_s_h, self._gain[2], (vhat_h, inv_h))
        d_rh = d_a_h @ self._wh_h
        d_s_zr = np.empty_like(zr)
        d_s_zr[..., 0, :] = d_h * (h_prev - hbar)
        d_s_zr[..., 1, :] = d_rh * h_prev
        d_s_zr *= zr * (1.0 - zr)
        d_a_zr = layer_norm_bwd(d_s_zr, self._gain[:2], (vhat_zr, inv_zr))
        d_a_zr = d_a_zr.reshape(d_a_zr.shape[:-2] + (-1,))
        d_h_prev = d_h * z + d_rh * zr[..., 1, :] + d_a_zr @ self._wh_zr
        return d_h_prev, None, (d_a_zr, d_a_h, d_s_zr, d_s_h)

    def _finish(self, grads, cache):
        d_a_zr, d_a_h, d_s_zr, d_s_h = grads
        x, h_prev, _, zr, _, vhat_zr, _, vhat_h, _ = cache
        zr_rows, h_rows = slice(0, 2 * self.hidden), slice(2 * self.hidden, None)
        self.wh.grad[zr_rows] += _rows2(d_a_zr).T @ _rows2(h_prev)
        self.wh.grad[h_rows] += _rows2(d_a_h).T @ _rows2(zr[..., 1, :] * h_prev)
        d_x = self._accumulate(zr_rows, d_a_zr, d_s_zr, vhat_zr, x)
        d_x += self._accumulate(h_rows, d_a_h, d_s_h, vhat_h, x)
        return d_x

    @property
    def out_dim(self):
        return self.hidden
