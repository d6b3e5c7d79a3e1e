import math

import numpy as np
import numpy.testing as npt
import pytest
from scalar_oracle import GateView

from transducerkit.cells import CellState, LnGruCell, LnLstmCell
from transducerkit.tensor import ParamRegistry, grad_check, layer_norm_fwd


def make_lstm(in_dim, hidden, proj, seed=0):
    reg = ParamRegistry()
    cell = LnLstmCell(reg, "lstm", in_dim, hidden, proj, np.random.default_rng(seed))
    return reg, cell


def make_gru(in_dim, hidden, seed=0):
    reg = ParamRegistry()
    cell = LnGruCell(reg, "gru", in_dim, hidden, np.random.default_rng(seed))
    return reg, cell


def zero_params(reg, keep_ln=True):
    for p in reg:
        if keep_ln and p.name.endswith("ln_gain"):
            p.value[...] = 1.0
        elif keep_ln and p.name.endswith("ln_bias"):
            p.value[...] = 0.0
        else:
            p.value[...] = 0.0


def force_gate(cell_gate, value):
    """Pin a gate: LN gain 0 makes the normalized pre-activation constant,
    so the LN bias alone sets the gate input."""
    cell_gate.gain.value[...] = 0.0
    cell_gate.bias.value[...] = value


class TestLstmStep:
    def test_zero_weight_fixed_point(self):
        reg, cell = make_lstm(3, 4, 2)
        zero_params(reg)
        state, _ = cell.step(np.array([1.0, -2.0, 0.5]), cell.initial_state())
        # all gates sigmoid(0)=0.5, candidate tanh(0)=0 -> c=0, h=W_p@0=0
        npt.assert_array_equal(state.c, np.zeros(4))
        npt.assert_array_equal(state.h, np.zeros(2))

    def test_forget_gate_saturation_keeps_cell(self):
        reg, cell = make_lstm(3, 4, 2, seed=1)
        zero_params(reg)
        force_gate(GateView(cell, "forget"), 50.0)   # f = sigmoid(50) ~ 1
        force_gate(GateView(cell, "in"), -50.0)      # i ~ 0
        c0 = np.array([0.3, -0.7, 1.1, 0.05])
        prev = CellState(np.zeros(2), c0.copy())
        state, _ = cell.step(np.zeros(3), prev)
        npt.assert_allclose(state.c, c0, atol=1e-10)

    def test_determinism(self):
        reg, cell = make_lstm(4, 6, 3, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=4)
        prev = CellState(rng.normal(size=3), rng.normal(size=6))
        s1, _ = cell.step(x, prev)
        s2, _ = cell.step(x, prev)
        npt.assert_array_equal(s1.h, s2.h)
        npt.assert_array_equal(s1.c, s2.c)

    def test_dim_mismatch(self):
        _, cell = make_lstm(3, 4, 2)
        with pytest.raises(ValueError):
            cell.step(np.zeros(5), cell.initial_state())

    def test_projection_bound(self):
        reg = ParamRegistry()
        with pytest.raises(ValueError):
            LnLstmCell(reg, "x", 3, 4, 5, np.random.default_rng(0))

    def test_output_bound(self):
        # q is elementwise in (-1, 1), so |h|_inf < max abs row sum of W_p
        rng = np.random.default_rng(4)
        for seed in range(5):
            reg, cell = make_lstm(5, 7, 3, seed=seed)
            bound = np.abs(cell.w_proj.value).sum(axis=1).max()
            state = CellState(rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 7))
            for _ in range(10):
                state, _ = cell.step(rng.uniform(-10, 10, 5), state)
                assert np.abs(state.h).max() < bound


class TestLstmBackward:
    def test_zero_grad_in_zero_grad_out(self):
        reg, cell = make_lstm(3, 4, 2, seed=5)
        rng = np.random.default_rng(6)
        prev = CellState(rng.normal(size=2), rng.normal(size=4))
        _, cache = cell.step(rng.normal(size=3), prev)
        d_x, d_h, d_c = cell.backward(np.zeros(2), np.zeros(4), cache)
        npt.assert_array_equal(d_x, np.zeros(3))
        npt.assert_array_equal(d_h, np.zeros(2))
        npt.assert_array_equal(d_c, np.zeros(4))
        for p in reg:
            npt.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_missing_cache(self):
        _, cell = make_lstm(3, 4, 2)
        with pytest.raises(ValueError):
            cell.backward(np.zeros(2), np.zeros(4), None)

    def test_scalar_chain_symbolic(self):
        # Dims of 1 collapse every layer norm to its bias, leaving a pure
        # sigmoid/tanh chain whose derivatives are written out by hand here.
        reg, cell = make_lstm(1, 1, 1, seed=7)
        for p in reg:
            p.value[...] = 0.0
        bi, bf, bc, bo, bcell = 0.3, 0.8, -0.4, 0.6, 0.2
        GateView(cell, "in").bias.value[...] = bi
        GateView(cell, "forget").bias.value[...] = bf
        GateView(cell, "cand").bias.value[...] = bc
        GateView(cell, "out").bias.value[...] = bo
        cell.cell_bias.value[...] = bcell
        wp = 1.7
        cell.w_proj.value[...] = wp
        c0 = 0.9
        prev = CellState(np.array([0.5]), np.array([c0]))
        state, cache = cell.step(np.array([0.25]), prev)

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i, f, o = sig(bi), sig(bf), sig(bo)
        cand = math.tanh(bc)
        c1 = f * c0 + i * cand
        tc = math.tanh(bcell)
        h1 = wp * o * tc
        assert abs(state.c[0] - c1) < 1e-12
        assert abs(state.h[0] - h1) < 1e-12

        # loss = 0.5 h^2 + 0.5 c^2
        reg.zero_grad()
        d_x, d_h_prev, d_c_prev = cell.backward(state.h.copy(), state.c.copy(), cache)
        assert abs(d_c_prev[0] - c1 * f) < 1e-10
        assert abs(cell.w_proj.grad[0, 0] - h1 * o * tc) < 1e-10
        assert abs(cell.cell_bias.grad[0] - h1 * wp * o * (1 - tc * tc)) < 1e-10
        assert abs(GateView(cell, "out").bias.grad[0] - h1 * wp * tc * o * (1 - o)) < 1e-10
        assert abs(GateView(cell, "forget").bias.grad[0] - c1 * c0 * f * (1 - f)) < 1e-10
        assert abs(GateView(cell, "in").bias.grad[0] - c1 * cand * i * (1 - i)) < 1e-10
        assert abs(GateView(cell, "cand").bias.grad[0] - c1 * i * (1 - cand * cand)) < 1e-10
        # the scalar LN forwards only its bias, so weight gradients vanish
        assert abs(GateView(cell, "in").wx.grad[0, 0]) < 1e-15
        assert abs(d_x[0]) < 1e-15

    def test_finite_differences_many_instances(self):
        # hidden >= 3: layer norm over 2 elements collapses to a sign
        # function whose true weight gradients sit below finite-difference
        # resolution
        rng = np.random.default_rng(8)
        for trial in range(20):
            in_dim = int(rng.integers(2, 9))
            hidden = int(rng.integers(3, 9))
            proj = int(rng.integers(2, hidden + 1))
            reg, cell = make_lstm(in_dim, hidden, proj, seed=100 + trial)
            xs = [rng.normal(size=in_dim) for _ in range(3)]
            probes = [rng.normal(size=proj) for _ in range(3)]

            def loss():
                state = cell.initial_state()
                states, caches = [], []
                for x in xs:
                    state, cache = cell.step(x, state)
                    states.append(state)
                    caches.append(cache)
                total = sum(float(p @ s.h) for p, s in zip(probes, states))
                total += 0.5 * float((states[-1].c ** 2).sum())
                d_h_carry = np.zeros(proj)
                d_c_carry = states[-1].c.copy()
                for t in range(len(xs) - 1, -1, -1):
                    d_h = probes[t] + d_h_carry
                    _, d_h_carry, d_c_carry = cell.backward(d_h, d_c_carry, caches[t])
                return total

            assert grad_check(loss, reg, step=1e-5) < 1e-5


class TestGruStep:
    def test_update_gate_one_keeps_state(self):
        reg, cell = make_gru(3, 4, seed=9)
        force_gate(GateView(cell, "update"), 50.0)  # sigmoid(50) rounds to exactly 1.0
        rng = np.random.default_rng(10)
        h0 = rng.normal(size=4)
        state, _ = cell.step(rng.normal(size=3), CellState(h0.copy()))
        npt.assert_array_equal(state.h, h0)

    def test_candidate_only_path(self):
        reg, cell = make_gru(3, 4, seed=11)
        force_gate(GateView(cell, "update"), -50.0)  # z ~ 0
        force_gate(GateView(cell, "reset"), -50.0)   # r ~ 0
        GateView(cell, "cand").wx.value[...] = 0.0   # zero input weights
        rng = np.random.default_rng(12)
        cand = GateView(cell, "cand")
        expected = np.tanh(layer_norm_fwd(cand.b.value, cand.gain.value, cand.bias.value, 1e-5)[0])
        state, _ = cell.step(rng.normal(size=3), CellState(rng.normal(size=4)))
        npt.assert_allclose(state.h, expected, atol=1e-12)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            _, cell = make_gru(5, 6, seed=seed)
            state = CellState(rng.uniform(-2, 2, 6))
            for _ in range(10):
                bound = max(np.abs(state.h).max(), 1.0)
                state, _ = cell.step(rng.uniform(-10, 10, 5), state)
                assert np.abs(state.h).max() <= bound

    def test_determinism(self):
        _, cell = make_gru(4, 5, seed=14)
        rng = np.random.default_rng(15)
        x, h = rng.normal(size=4), rng.normal(size=5)
        s1, _ = cell.step(x, CellState(h))
        s2, _ = cell.step(x, CellState(h))
        npt.assert_array_equal(s1.h, s2.h)


class TestGruBackward:
    def test_missing_cache(self):
        _, cell = make_gru(3, 4)
        with pytest.raises(ValueError):
            cell.backward(np.zeros(4), None, None)

    def test_finite_differences_many_instances(self):
        rng = np.random.default_rng(16)
        for trial in range(20):
            in_dim = int(rng.integers(2, 9))
            hidden = int(rng.integers(3, 9))
            reg, cell = make_gru(in_dim, hidden, seed=200 + trial)
            xs = [rng.normal(size=in_dim) for _ in range(3)]
            probes = [rng.normal(size=hidden) for _ in range(3)]

            def loss():
                state = cell.initial_state()
                states, caches = [], []
                for x in xs:
                    state, cache = cell.step(x, state)
                    states.append(state)
                    caches.append(cache)
                total = sum(float(p @ s.h) for p, s in zip(probes, states))
                d_h_carry = np.zeros(hidden)
                for t in range(len(xs) - 1, -1, -1):
                    d_h = probes[t] + d_h_carry
                    _, d_h_carry, _ = cell.backward(d_h, None, caches[t])
                return total

            assert grad_check(loss, reg, step=1e-5) < 1e-5
