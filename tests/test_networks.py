import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.model import ModelConfig
from transducerkit.networks import (
    NetConfig,
    PredictionNet,
    SequenceNet,
    expected_param_count,
    stack_frames,
)
from transducerkit.tensor import ParamRegistry, grad_check


def build(kind, layers=2, hidden=5, input_dim=4, proj=3, tau=0, seed=0):
    cfg_kwargs = dict(cell_kind=kind, num_layers=layers, hidden=hidden, input_dim=input_dim)
    if kind in ("ln_lstm", "lt_lstm", "clt_lstm"):
        cfg_kwargs["projection"] = proj
    if kind in ("clt_lstm", "eclt_gru"):
        cfg_kwargs["tau"] = tau
    cfg = NetConfig(**cfg_kwargs)
    reg = ParamRegistry()
    net = SequenceNet(reg, "net", cfg, np.random.default_rng(seed))
    return reg, net


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NetConfig(cell_kind="bilstm", num_layers=1, hidden=4, input_dim=4)

    def test_tau_only_contextual(self):
        with pytest.raises(ValueError):
            NetConfig(cell_kind="lt_gru", num_layers=1, hidden=4, input_dim=4, tau=2)

    def test_projection_only_lstm(self):
        with pytest.raises(ValueError):
            NetConfig(cell_kind="ln_gru", num_layers=1, hidden=4, input_dim=4, projection=2)


class TestStackFrames:
    def test_non_overlapping(self):
        feats = np.arange(12, dtype=float).reshape(6, 2)
        out = stack_frames(feats, 3)
        assert out.shape == (2, 6)
        npt.assert_array_equal(out[0], [0, 1, 2, 3, 4, 5])
        npt.assert_array_equal(out[1], [6, 7, 8, 9, 10, 11])

    def test_zero_padded_tail(self):
        feats = np.ones((4, 2))
        out = stack_frames(feats, 3)
        assert out.shape == (2, 6)
        npt.assert_array_equal(out[1], [1, 1, 0, 0, 0, 0])


class TestPlainStack:
    def test_single_layer_matches_repeated_steps(self):
        for kind in ("ln_lstm", "ln_gru"):
            reg, net = build(kind, layers=1)
            xs = np.random.default_rng(1).normal(size=(4, 4))
            outs, _ = net.forward(xs)
            cell = net.time_cells[0]
            state = cell.initial_state()
            for t in range(4):
                state, _ = cell.step(xs[t], state)
                # forward projects all frames in one matrix product, step
                # one frame at a time: equal up to BLAS rounding order
                npt.assert_allclose(outs[t], state.h, rtol=0, atol=1e-12)

    def test_zero_weight_outputs(self):
        for kind in ("ln_lstm", "ln_gru"):
            reg, net = build(kind)
            for p in reg:
                if p.name.endswith("ln_gain"):
                    p.value[...] = 1.0
                else:
                    p.value[...] = 0.0
            outs, _ = net.forward(np.random.default_rng(2).normal(size=(3, 4)))
            # LSTM: gates 0.5, candidate 0 -> h = 0; GRU: h interpolates
            # between the zero start state and a zero candidate
            npt.assert_array_equal(outs, np.zeros_like(outs))

    def test_causality(self):
        reg, net = build("ln_gru", layers=2, seed=3)
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(5, 4))
        base, _ = net.forward(xs)
        bumped = xs.copy()
        bumped[3] += 1.0
        outs, _ = net.forward(bumped)
        npt.assert_array_equal(outs[:3], base[:3])
        assert np.abs(outs[3:] - base[3:]).max() > 0

    def test_empty_sequence(self):
        _, net = build("ln_gru")
        with pytest.raises(ValueError):
            net.forward(np.zeros((0, 4)))


class TestTrajectory:
    def test_column_independence(self):
        # perturbing a later frame never changes earlier depth outputs
        for kind in ("lt_lstm", "lt_gru"):
            reg, net = build(kind, seed=7)
            rng = np.random.default_rng(8)
            xs = rng.normal(size=(5, 4))
            base, _ = net.forward(xs)
            bumped = xs.copy()
            bumped[2] -= 0.5
            outs, _ = net.forward(bumped)
            npt.assert_array_equal(outs[:2], base[:2])
            assert np.abs(outs[2:] - base[2:]).max() > 0

    def test_single_layer_zero_time_cell_constant_columns(self):
        reg, net = build("lt_gru", layers=1, seed=9)
        for p in reg:
            if ".time." in p.name:
                p.value[...] = 1.0 if p.name.endswith("ln_gain") else 0.0
        outs, _ = net.forward(np.random.default_rng(10).normal(size=(4, 4)))
        for t in range(1, 4):
            npt.assert_array_equal(outs[t], outs[0])

    def test_backward_finite_differences(self):
        for kind in ("lt_lstm", "lt_gru"):
            reg, net = build(kind, layers=2, hidden=4, input_dim=4, proj=3, seed=11)
            rng = np.random.default_rng(12)
            xs = rng.normal(size=(3, 4))
            probe = rng.normal(size=(3, net.out_dim))

            def loss():
                outs, cache = net.forward(xs)
                net.backward(probe, cache)
                return float((outs * probe).sum())

            assert grad_check(loss, reg, step=1e-5) < 1e-5

    def test_input_grads_match_finite_differences(self):
        reg, net = build("lt_gru", layers=2, seed=13)
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(3, 4))
        probe = rng.normal(size=(3, net.out_dim))
        outs, cache = net.forward(xs)
        d_xs = net.backward(probe, cache)
        step = 1e-6
        for t in range(3):
            for i in range(4):
                up = xs.copy(); up[t, i] += step
                dn = xs.copy(); dn[t, i] -= step
                fu, _ = net.forward(up)
                fd, _ = net.forward(dn)
                num = ((fu - fd) * probe).sum() / (2 * step)
                assert abs(num - d_xs[t, i]) < 1e-6


class TestContextual:
    def test_eclt_tau0_reduces_to_lt_bitwise(self):
        # default init sets the single context vector to exactly 1
        _, eclt = build("eclt_gru", tau=0, seed=15)
        _, lt = build("lt_gru", seed=15)
        xs = np.random.default_rng(16).normal(size=(4, 4))
        a, _ = eclt.forward(xs)
        b, _ = lt.forward(xs)
        npt.assert_array_equal(a, b)

    def test_clt_identity_context_reduces_to_lt(self):
        reg, clt = build("clt_lstm", tau=1, seed=17)
        for row in clt.ctx_weights:
            row[0].value[...] = np.eye(clt.out_dim)
            row[1].value[...] = 0.0
        _, lt = build("lt_lstm", seed=17)
        xs = np.random.default_rng(18).normal(size=(4, 4))
        a, _ = clt.forward(xs)
        b, _ = lt.forward(xs)
        npt.assert_allclose(a, b, atol=1e-12)

    def test_lookahead_reach_exact(self):
        # reach is exactly num_layers*tau: frame t+L*tau matters, t+L*tau+1 never
        for kind, tau, layers in (("eclt_gru", 2, 2), ("clt_lstm", 1, 3), ("eclt_gru", 4, 6)):
            _, net = build(kind, layers=layers, hidden=4, tau=tau, seed=19)
            reach = layers * tau
            T = reach + 4
            rng = np.random.default_rng(20)
            xs = rng.normal(size=(T, 4))
            base, _ = net.forward(xs)
            past_edge = xs.copy()
            past_edge[reach + 1] += 1.0  # frame t0 + reach + 1 for t0 = 0
            outs, _ = net.forward(past_edge)
            npt.assert_array_equal(outs[0], base[0])
            at_edge = xs.copy()
            at_edge[reach] += 1.0
            outs, _ = net.forward(at_edge)
            assert np.abs(outs[0] - base[0]).max() > 0

    def test_backward_finite_differences(self):
        for kind, tau in (("clt_lstm", 1), ("eclt_gru", 2)):
            reg, net = build(kind, layers=2, hidden=4, tau=tau, seed=21)
            # zero future weights would leave the d>=1 branches of the
            # context backward unchecked
            for row in net.ctx_weights:
                for w in row[1:]:
                    assert np.abs(w.value).max() > 0
            rng = np.random.default_rng(22)
            xs = rng.normal(size=(4, 4))
            probe = rng.normal(size=(4, net.out_dim))

            def loss():
                outs, cache = net.forward(xs)
                net.backward(probe, cache)
                return float((outs * probe).sum())

            assert grad_check(loss, reg, step=1e-5) < 1e-5


class TestParamCounts:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("ln_lstm", dict(layers=2, hidden=6, proj=4)),
            ("lt_lstm", dict(layers=2, hidden=5, proj=3)),
            ("clt_lstm", dict(layers=2, hidden=5, proj=3, tau=2)),
            ("ln_gru", dict(layers=3, hidden=5)),
            ("lt_gru", dict(layers=2, hidden=4)),
            ("eclt_gru", dict(layers=2, hidden=4, tau=3)),
        ],
    )
    def test_formula_matches_registry(self, kind, kwargs):
        reg, net = build(kind, input_dim=7, **kwargs)
        assert reg.num_scalars() == expected_param_count(net.cfg)

    def test_elementwise_context_is_cheaper(self):
        # per boundary: (tau+1)*dim scalars for eclt vs (tau+1)*dim^2 for clt
        tau, dim = 3, 4
        reg_e, net_e = build("eclt_gru", layers=2, hidden=dim, tau=tau)
        reg_e0, _ = build("lt_gru", layers=2, hidden=dim)
        assert reg_e.num_scalars() - reg_e0.num_scalars() == 2 * (tau + 1) * dim
        reg_c, net_c = build("clt_lstm", layers=2, hidden=dim, proj=dim, tau=tau)
        reg_c0, _ = build("lt_lstm", layers=2, hidden=dim, proj=dim)
        assert reg_c.num_scalars() - reg_c0.num_scalars() == 2 * (tau + 1) * dim * dim


class TestPredictionNet:
    def make(self, kind="ln_gru", layers=2, num_labels=6, seed=23):
        reg = ParamRegistry()
        projection = 4 if kind == "ln_lstm" else 0
        cfg = NetConfig(cell_kind=kind, num_layers=layers, hidden=5, input_dim=3, projection=projection)
        net = PredictionNet(reg, "pre", cfg, num_labels, np.random.default_rng(seed))
        return reg, net

    def test_contextual_rejected(self):
        enc = NetConfig(cell_kind="lt_gru", num_layers=1, hidden=4, input_dim=6)
        pre = NetConfig(cell_kind="eclt_gru", num_layers=1, hidden=4, input_dim=3, tau=1)
        with pytest.raises(ValueError, match="only valid for the encoder"):
            ModelConfig(feature_dim=2, num_labels=6, joint_dim=4, encoder=enc, prediction=pre)

    @pytest.mark.parametrize("kind", ["lt_lstm", "lt_gru", "clt_lstm", "eclt_gru"])
    def test_trajectory_kinds_rejected(self, kind):
        # decoding steps only the time cells, so no depth column may sit on
        # top; the config and the network itself both refuse one
        enc = NetConfig(cell_kind="lt_gru", num_layers=1, hidden=4, input_dim=6)
        kwargs = dict(projection=3) if kind.endswith("lstm") else {}
        pre = NetConfig(cell_kind=kind, num_layers=1, hidden=4, input_dim=3, **kwargs)
        message = f"prediction cell kind '{kind}'.*only valid for the encoder"
        with pytest.raises(ValueError, match=message):
            ModelConfig(feature_dim=2, num_labels=6, joint_dim=4, encoder=enc, prediction=pre)
        reg = ParamRegistry()
        with pytest.raises(ValueError, match=message):
            PredictionNet(reg, "pre", pre, 6, np.random.default_rng(0))
        assert list(reg) == []

    def test_empty_prefix_single_output(self):
        _, net = self.make()
        outs, _ = net.forward([])
        assert outs.shape == (1, 5)

    def test_blank_inside_labels_rejected(self):
        _, net = self.make()
        with pytest.raises(ValueError):
            net.forward([2, 0, 1])
        with pytest.raises(ValueError):
            net.forward([7])  # out of vocabulary

    def test_out_of_range_token_named_by_forward_and_step(self):
        _, net = self.make(num_labels=6)
        for bad in (0, 6, -1):
            with pytest.raises(ValueError, match=rf"token id {bad} outside \[1, 5\]"):
                net.forward([2, bad, 1])
            with pytest.raises(ValueError, match=rf"token id {bad} outside \[1, 5\]"):
                net.step(net.initial_state(), bad)

    def test_table_gradient_matches_per_token_loop(self):
        # repeated tokens within and across the sequences of a batch
        reg, net = self.make(num_labels=6)
        rng = np.random.default_rng(25)
        batch = [[3, 1, 3, 3, 5], [1, 3], [5, 5, 2, 1]]
        probes = [rng.normal(size=(len(labels) + 1, 5)) for labels in batch]
        expected = np.zeros_like(net.table.grad)
        for labels, probe in zip(batch, probes):
            _, (_, net_cache) = net.forward(labels)
            d_xs = net.net.backward(probe, net_cache)
            for u, tok in enumerate(labels):
                expected[tok] += d_xs[u + 1]
        reg.zero_grad()
        for labels, probe in zip(batch, probes):
            _, cache = net.forward(labels)
            net.backward(probe, cache)
        assert net.table.grad.tobytes() == expected.tobytes()

    def test_prefix_consistency(self):
        _, net = self.make()
        full, _ = net.forward([1, 2, 3, 4])
        part, _ = net.forward([1, 2])
        npt.assert_array_equal(full[:3], part)

    @pytest.mark.parametrize("kind,layers", [("ln_gru", 1), ("ln_gru", 2), ("ln_lstm", 1), ("ln_lstm", 2)])
    def test_step_matches_forward(self, kind, layers):
        _, net = self.make(kind, layers)
        labels = [2, 4, 1]
        outs, _ = net.forward(labels)
        # forward projects all positions in one matrix product, step one
        # position at a time: equal up to BLAS rounding order
        state, out = net.step(net.initial_state(), None)
        npt.assert_allclose(out, outs[0], rtol=0, atol=1e-12)
        for u, tok in enumerate(labels):
            state, out = net.step(state, tok)
            npt.assert_allclose(out, outs[u + 1], rtol=0, atol=1e-12)

    def test_backward_finite_differences(self):
        reg, net = self.make(layers=2)
        rng = np.random.default_rng(24)
        # zero biases put the first layer norm exactly at its epsilon-
        # dominated zero-variance point, where finite differences see huge
        # curvature; random biases give a generic evaluation point
        for p in reg:
            if p.name.endswith(".b"):
                p.value[...] = rng.normal(scale=0.3, size=p.value.shape)
        labels = [1, 3, 2]
        probe = rng.normal(size=(4, 5))

        def loss():
            outs, cache = net.forward(labels)
            net.backward(probe, cache)
            return float((outs * probe).sum())

        assert grad_check(loss, reg, step=1e-5) < 1e-5
