"""Frame-by-frame, gate-by-gate reference for the fused recurrent kernels.

This is the per-gate cell and per-frame network code the fused kernels
replaced, kept as the test oracle: one block of weights, one layer norm and
one outer product per gate per frame, a Python loop over frames in every
layer (depth layers and context combinations included), and its own copies
of the vector layer norm and the sign-split sigmoid. It runs on the
parameters of a fused ``SequenceNet`` through views of each gate's rows, so
its gradients accumulate into the same registry buffers.
"""

import numpy as np

from transducerkit.cells import LN_EPSILON, CellState

DTYPE = np.float64


def sigmoid(x):
    x = np.asarray(x)
    out = np.empty_like(x, dtype=DTYPE)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_norm_fwd(v, gain, bias, epsilon):
    mu = v.mean()
    centered = v - mu
    inv_sigma = 1.0 / np.sqrt(centered.dot(centered) / v.size + epsilon)
    vhat = centered * inv_sigma
    return vhat * gain + bias, (vhat, inv_sigma)


def layer_norm_bwd(d_out, gain, cache):
    vhat, inv_sigma = cache
    d_vhat = d_out * gain
    n = vhat.size
    d_v = inv_sigma * (d_vhat - d_vhat.mean() - vhat * (d_vhat * vhat).sum() / n)
    return d_v


class View:
    """A Param-like pair of value/grad views (writes reach the fused param)."""

    def __init__(self, param, rows=slice(None)):
        self.value = param.value[rows]
        self.grad = param.grad[rows]


class GateView:
    """One gate's slices of a fused cell's stacked parameters."""

    def __init__(self, cell, name):
        g = cell.gates.index(name)
        rows = slice(g * cell.hidden, (g + 1) * cell.hidden)
        self.wx = View(cell.wx, rows)
        self.wh = View(cell.wh, rows)
        self.b = View(cell.b, rows)
        self.gain = View(cell.ln_gain, rows)
        self.bias = View(cell.ln_bias, rows)

    def pre(self, x, h_prev):
        return self.wx.value @ x + self.wh.value @ h_prev + self.b.value

    def norm(self, a):
        return layer_norm_fwd(a, self.gain.value, self.bias.value, LN_EPSILON)

    def backward(self, d_s, ln_cache, x, h_prev):
        d_a = layer_norm_bwd(d_s, self.gain.value, ln_cache)
        self.gain.grad += d_s * ln_cache[0]
        self.bias.grad += d_s
        self.wx.grad += np.outer(d_a, x)
        self.wh.grad += np.outer(d_a, h_prev)
        self.b.grad += d_a
        return self.wx.value.T @ d_a, self.wh.value.T @ d_a


class LstmOracle:
    state_kind = "lstm"

    def __init__(self, cell):
        self.hidden = cell.hidden
        self.out_dim = cell.proj
        self.g_in, self.g_forget, self.g_cand, self.g_out = (
            GateView(cell, name) for name in ("in", "forget", "cand", "out"))
        self.cell_gain = View(cell.cell_gain)
        self.cell_bias = View(cell.cell_bias)
        self.w_proj = View(cell.w_proj)
        self.initial_state = cell.initial_state

    def step(self, x, prev):
        h_prev, c_prev = prev.h, prev.c
        s_i, ln_i = self.g_in.norm(self.g_in.pre(x, h_prev))
        s_f, ln_f = self.g_forget.norm(self.g_forget.pre(x, h_prev))
        s_c, ln_c = self.g_cand.norm(self.g_cand.pre(x, h_prev))
        s_o, ln_o = self.g_out.norm(self.g_out.pre(x, h_prev))
        gi = sigmoid(s_i)
        gf = sigmoid(s_f)
        go = sigmoid(s_o)
        cand = np.tanh(s_c)
        c = gf * c_prev + gi * cand
        cn, ln_cell = layer_norm_fwd(c, self.cell_gain.value, self.cell_bias.value, LN_EPSILON)
        tc = np.tanh(cn)
        q = go * tc
        h = self.w_proj.value @ q
        cache = (x, h_prev, c_prev, gi, gf, go, cand, ln_i, ln_f, ln_c, ln_o, ln_cell, tc, q)
        return CellState(h, c), cache

    def backward(self, d_h, d_c, cache):
        x, h_prev, c_prev, gi, gf, go, cand, ln_i, ln_f, ln_c, ln_o, ln_cell, tc, q = cache
        d_q = self.w_proj.value.T @ d_h
        self.w_proj.grad += np.outer(d_h, q)
        d_go = d_q * tc
        d_cn = d_q * go * (1.0 - tc * tc)
        d_c_from_q = layer_norm_bwd(d_cn, self.cell_gain.value, ln_cell)
        self.cell_gain.grad += d_cn * ln_cell[0]
        self.cell_bias.grad += d_cn
        d_ct = d_c_from_q + (d_c if d_c is not None else 0.0)
        d_gf = d_ct * c_prev
        d_c_prev = d_ct * gf
        d_gi = d_ct * cand
        d_cand = d_ct * gi
        d_si = d_gi * gi * (1.0 - gi)
        d_sf = d_gf * gf * (1.0 - gf)
        d_so = d_go * go * (1.0 - go)
        d_sc = d_cand * (1.0 - cand * cand)
        dx_i, dh_i = self.g_in.backward(d_si, ln_i, x, h_prev)
        dx_f, dh_f = self.g_forget.backward(d_sf, ln_f, x, h_prev)
        dx_c, dh_c = self.g_cand.backward(d_sc, ln_c, x, h_prev)
        dx_o, dh_o = self.g_out.backward(d_so, ln_o, x, h_prev)
        return dx_i + dx_f + dx_c + dx_o, dh_i + dh_f + dh_c + dh_o, d_c_prev


class GruOracle:
    state_kind = "gru"

    def __init__(self, cell):
        self.hidden = cell.hidden
        self.out_dim = cell.hidden
        self.g_update, self.g_reset, self.g_cand = (
            GateView(cell, name) for name in ("update", "reset", "cand"))
        self.initial_state = cell.initial_state

    def step(self, x, prev):
        h_prev = prev.h
        s_z, ln_z = self.g_update.norm(self.g_update.pre(x, h_prev))
        s_r, ln_r = self.g_reset.norm(self.g_reset.pre(x, h_prev))
        z = sigmoid(s_z)
        r = sigmoid(s_r)
        rh = r * h_prev
        s_h, ln_h = self.g_cand.norm(self.g_cand.pre(x, rh))
        hbar = np.tanh(s_h)
        h = z * h_prev + (1.0 - z) * hbar
        return CellState(h), (x, h_prev, z, r, rh, hbar, ln_z, ln_r, ln_h)

    def backward(self, d_h, d_c, cache):
        x, h_prev, z, r, rh, hbar, ln_z, ln_r, ln_h = cache
        d_z = d_h * (h_prev - hbar)
        d_h_prev = d_h * z
        d_hbar = d_h * (1.0 - z)
        d_sh = d_hbar * (1.0 - hbar * hbar)
        d_x, d_rh = self.g_cand.backward(d_sh, ln_h, x, rh)
        d_r = d_rh * h_prev
        d_h_prev = d_h_prev + d_rh * r
        d_sz = d_z * z * (1.0 - z)
        dx_z, dh_z = self.g_update.backward(d_sz, ln_z, x, h_prev)
        d_sr = d_r * r * (1.0 - r)
        dx_r, dh_r = self.g_reset.backward(d_sr, ln_r, x, h_prev)
        return d_x + dx_z + dx_r, d_h_prev + dh_z + dh_r, None


def oracle_cell(cell):
    return LstmOracle(cell) if cell.state_kind == "lstm" else GruOracle(cell)


class OracleNet:
    """The per-frame network over a fused SequenceNet's parameters."""

    def __init__(self, net):
        self.cfg = net.cfg
        self.time_cells = [oracle_cell(c) for c in net.time_cells]
        self.depth_cells = [oracle_cell(c) for c in net.depth_cells]
        self.ctx_weights = net.ctx_weights

    def forward(self, xs, pack=None):
        """One sequence, or with ``pack`` (packing.Packing) each sequence
        of a packed minibatch on its own; outputs in the input's layout."""
        if pack is not None:
            runs = [self.forward(x) for x in pack.unpack(np.asarray(xs, dtype=DTYPE))]
            return pack.pack([outs for outs, _ in runs]), ("batch", pack, [cache for _, cache in runs])
        xs = np.asarray(xs, dtype=DTYPE)
        hs, time_caches = self._time_pass(xs)
        if not self.cfg.is_trajectory:
            return np.vstack(hs[-1]), ("stack", time_caches)
        gs, depth_caches = self._depth_pass(hs)
        if self.cfg.is_contextual:
            out = self._ctx_combine(gs[-1], self.cfg.num_layers - 1)
            return np.vstack(out), ("traj", time_caches, depth_caches, gs)
        return np.vstack(gs[-1]), ("traj", time_caches, depth_caches, gs)

    def _time_pass(self, xs):
        T = xs.shape[0]
        hs, caches = [], []
        cur = [xs[t] for t in range(T)]
        for cell in self.time_cells:
            state = cell.initial_state()
            outs, ccaches = [], []
            for t in range(T):
                state, cache = cell.step(cur[t], state)
                outs.append(state.h)
                ccaches.append(cache)
            hs.append(outs)
            caches.append(ccaches)
            cur = outs
        return hs, caches

    def _depth_pass(self, hs):
        cfg = self.cfg
        T = len(hs[0])
        zero_in = np.zeros(cfg.out_dim, dtype=DTYPE)
        gs, caches = [], []
        below = [zero_in] * T
        below_cell = [None] * T
        for l, cell in enumerate(self.depth_cells):
            outs, ccaches, cells_out = [], [], []
            for t in range(T):
                if cell.state_kind == "lstm":
                    c = below_cell[t]
                    if c is None:
                        c = np.zeros(cfg.hidden, dtype=DTYPE)
                    prev = CellState(hs[l][t], c)
                else:
                    prev = CellState(hs[l][t])
                st, cache = cell.step(below[t], prev)
                outs.append(st.h)
                cells_out.append(st.c)
                ccaches.append(cache)
            gs.append(outs)
            caches.append(ccaches)
            below_cell = cells_out
            if l + 1 < cfg.num_layers:
                below = self._ctx_combine(outs, l) if cfg.is_contextual else outs
        return gs, caches

    def _ctx_combine(self, gs, l):
        T = len(gs)
        weights = self.ctx_weights[l]
        out = []
        for t in range(T):
            acc = None
            for d in range(self.cfg.tau + 1):
                if t + d >= T:
                    break
                w = weights[d].value
                term = w @ gs[t + d] if w.ndim == 2 else w * gs[t + d]
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def _ctx_backward(self, d_zeta, gs, l):
        T = len(gs)
        weights = self.ctx_weights[l]
        d_g = [np.zeros_like(gs[0]) for _ in range(T)]
        for t in range(T):
            dz = d_zeta[t]
            for d in range(self.cfg.tau + 1):
                if t + d >= T:
                    break
                w = weights[d]
                if w.value.ndim == 2:
                    w.grad += np.outer(dz, gs[t + d])
                    d_g[t + d] += w.value.T @ dz
                else:
                    w.grad += dz * gs[t + d]
                    d_g[t + d] += w.value * dz
        return d_g

    def backward(self, d_out, cache):
        if cache[0] == "batch":
            _, pack, caches = cache
            return pack.pack([self.backward(d, c) for d, c in zip(pack.unpack(d_out), caches)])
        if cache[0] == "stack":
            _, time_caches = cache
            return self._time_backward([d_out[t] for t in range(d_out.shape[0])], None, time_caches)
        _, time_caches, depth_caches, gs = cache
        cfg = self.cfg
        T = d_out.shape[0]
        if cfg.is_contextual:
            d_g = self._ctx_backward([d_out[t] for t in range(T)], gs[-1], cfg.num_layers - 1)
        else:
            d_g = [d_out[t] for t in range(T)]
        d_h_from_depth = [[None] * T for _ in range(cfg.num_layers)]
        d_cell = [None] * T
        for l in range(cfg.num_layers - 1, -1, -1):
            cell = self.depth_cells[l]
            d_x_slot = [None] * T
            d_cell_below = [None] * T
            for t in range(T):
                dc = d_cell[t]
                if dc is None and cell.state_kind == "lstm":
                    dc = np.zeros(cfg.hidden, dtype=DTYPE)
                d_x, d_h_slot, d_c_prev = cell.backward(d_g[t], dc, depth_caches[l][t])
                d_x_slot[t] = d_x
                d_h_from_depth[l][t] = d_h_slot
                d_cell_below[t] = d_c_prev
            d_cell = d_cell_below
            if l > 0:
                d_g = self._ctx_backward(d_x_slot, gs[l - 1], l - 1) if cfg.is_contextual else d_x_slot
        return self._time_backward(None, d_h_from_depth, time_caches)

    def _time_backward(self, d_top, d_from_depth, time_caches):
        T = len(time_caches[0])
        d_next = d_top
        for l in range(len(self.time_cells) - 1, -1, -1):
            cell = self.time_cells[l]
            d_h_carry = np.zeros(cell.out_dim, dtype=DTYPE)
            d_c_carry = np.zeros(cell.hidden, dtype=DTYPE) if cell.state_kind == "lstm" else None
            d_below = [None] * T
            for t in range(T - 1, -1, -1):
                d_h = d_h_carry.copy()
                if d_next is not None:
                    d_h += d_next[t]
                if d_from_depth is not None:
                    d_h += d_from_depth[l][t]
                d_x, d_h_carry, d_c_carry = cell.backward(d_h, d_c_carry, time_caches[l][t])
                d_below[t] = d_x
            d_next = d_below
        return np.vstack(d_next)


def legacy_uniform(rng, shape, fanin):
    """One weight draw as the per-gate layout made it: a uniform array, then a copy."""
    limit = 1.0 / np.sqrt(fanin)
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


def legacy_cell_draws(rng, kind, in_dim, hidden, rec_dim, proj=None):
    """Re-draw one cell's random weights in the per-gate order: for each
    gate (LSTM in, forget, cand, out; GRU update, reset, cand) its ``wx``
    then its ``wh``, then the LSTM projection. Returns {name: array}."""
    names = ("in", "forget", "cand", "out") if kind == "lstm" else ("update", "reset", "cand")
    draws = {}
    for name in names:
        draws[name + ".wx"] = legacy_uniform(rng, (hidden, in_dim), in_dim)
        draws[name + ".wh"] = legacy_uniform(rng, (hidden, rec_dim), rec_dim)
    if kind == "lstm":
        draws["w_proj"] = legacy_uniform(rng, (proj, hidden), hidden)
    return draws
