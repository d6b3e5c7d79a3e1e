"""Fused-gate sequence kernels against the per-gate, per-frame scalar oracle."""

import dataclasses
import os

import numpy as np
import numpy.testing as npt
import pytest
from scalar_oracle import GateView, OracleNet, legacy_cell_draws, legacy_uniform

from transducerkit import config as tk_config
from transducerkit.cells import LnGruCell, LnLstmCell
from transducerkit.data import gen_synthetic
from transducerkit.joint import JointNetwork
from transducerkit.model import TransducerModel
from transducerkit.networks import LSTM_KINDS, NetConfig, SequenceNet
from transducerkit.tensor import ParamRegistry

# Agreement bound: 1e-12 absolute, or relative to values above 1 (summing
# the same terms in another order moves a value by a few ulps of its size).
TOL = dict(rtol=1e-12, atol=1e-12)
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CONFIGS = ("quickstart.cfg", "ecltgru-tau4.cfg", "baseline-lstm.cfg")


def model_config(name):
    return tk_config.model_config_from(tk_config.RunConfig.load(os.path.join(CONFIG_DIR, name)))


def frozen_batch(num=3, seed=11):
    cfg = tk_config.RunConfig.load(os.path.join(CONFIG_DIR, "default-task.cfg"), schema=tk_config.TASK_KEYS)
    spec = dataclasses.replace(tk_config.task_spec_from(cfg), train_size=num, dev_size=0, test_size=0, seed=seed)
    return [(u.features, u.labels) for u in gen_synthetic(spec)["train"]]


def assert_bytes_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInitBitwise:
    def check_cell(self, cell, rng):
        """The cell's stacked slices equal the per-gate draws replayed from rng."""
        draws = legacy_cell_draws(rng, cell.state_kind, cell.input_dim, cell.hidden, cell.out_dim, cell.out_dim)
        for name in cell.gates:
            gate = GateView(cell, name)
            assert_bytes_equal(gate.wx.value, draws[name + ".wx"])
            assert_bytes_equal(gate.wh.value, draws[name + ".wh"])
            shift = 1.0 if name == "forget" else 0.0
            npt.assert_array_equal(gate.b.value, shift)
            npt.assert_array_equal(gate.bias.value, shift)
            npt.assert_array_equal(gate.gain.value, 1.0)
        if cell.state_kind == "lstm":
            assert_bytes_equal(cell.w_proj.value, draws["w_proj"])

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_cell_matches_per_gate_draws(self, kind):
        rng = np.random.default_rng(4)
        if kind == "lstm":
            cell = LnLstmCell(ParamRegistry(), "c", 7, 5, 3, rng)
        else:
            cell = LnGruCell(ParamRegistry(), "c", 7, 5, rng)
        replay = np.random.default_rng(4)
        self.check_cell(cell, replay)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("name", CONFIGS)
    def test_model_matches_per_gate_draw_order(self, name):
        model = TransducerModel(model_config(name))
        rng = np.random.default_rng(model.cfg.seed)

        def check_net(net):
            for l, time_cell in enumerate(net.time_cells):
                self.check_cell(time_cell, rng)
                if net.depth_cells:
                    self.check_cell(net.depth_cells[l], rng)

        check_net(model.encoder)
        assert model.registry["pre.embed.table"] is model.prediction.table
        dim = model.cfg.prediction.input_dim
        assert_bytes_equal(model.prediction.table.value, legacy_uniform(rng, (model.cfg.num_labels, dim), dim))
        check_net(model.prediction.net)
        reg = ParamRegistry()
        JointNetwork(reg, "joint", model.encoder.out_dim, model.prediction.out_dim,
                     model.cfg.joint_dim, model.cfg.num_labels, rng)
        for p in reg:
            assert_bytes_equal(model.registry[p.name].value, p.value)


WIRINGS = [
    # (cell kind, tau, T): every wiring at T=1 and T=5; contextual at tau 0
    # and 2, and with tau >= T
    *[(kind, 0, T) for kind in ("ln_lstm", "lt_lstm", "ln_gru", "lt_gru") for T in (1, 5)],
    *[(kind, tau, T) for kind in ("clt_lstm", "eclt_gru") for tau in (0, 2) for T in (1, 5)],
    ("clt_lstm", 4, 3),
    ("eclt_gru", 3, 3),
]


def perturbed_net(kind, tau, seed=0):
    kwargs = dict(cell_kind=kind, num_layers=3, hidden=5, input_dim=4, tau=tau)
    if kind in LSTM_KINDS:
        kwargs["projection"] = 3
    reg = ParamRegistry()
    net = SequenceNet(reg, "net", NetConfig(**kwargs), np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in reg:  # move every parameter off its structured init
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    return reg, net


@pytest.mark.parametrize("kind,tau,T", WIRINGS)
def test_network_matches_oracle(kind, tau, T):
    reg, net = perturbed_net(kind, tau)
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(T, 4))
    probe = rng.normal(size=(T, net.out_dim))

    reg.zero_grad()
    outs, cache = net.forward(xs)
    d_xs = net.backward(probe, cache)
    grads = {p.name: p.grad.copy() for p in reg}

    reg.zero_grad()
    oracle = OracleNet(net)
    outs_o, cache_o = oracle.forward(xs)
    d_xs_o = oracle.backward(probe, cache_o)

    npt.assert_allclose(outs, outs_o, **TOL)
    npt.assert_allclose(d_xs, d_xs_o, **TOL)
    for p in reg:
        npt.assert_allclose(grads[p.name], p.grad, **TOL, err_msg=p.name)

    if not net.cfg.is_contextual:
        state, state_o = net.initial_state(), oracle.initial_state()
        for t in range(T):
            state, out = net.step(xs[t], state)
            state_o, out_o = oracle.step(xs[t], state_o)
            npt.assert_allclose(out, out_o, **TOL)


def test_depth_layer_is_one_step_over_all_frames():
    _, net = perturbed_net("eclt_gru", 2)
    calls = []
    for cell in net.depth_cells:
        step = cell.step
        cell.step = lambda x, prev, step=step: calls.append(x.shape) or step(x, prev)
    net.forward(np.random.default_rng(8).normal(size=(6, 4)))
    assert calls == [(6, net.out_dim)] * net.cfg.num_layers


@pytest.mark.parametrize("name", CONFIGS)
def test_model_loss_and_grads_match_oracle(name):
    model = TransducerModel(model_config(name))
    batch = frozen_batch()
    model.registry.zero_grad()
    loss = model.batch_loss_and_grad(batch)
    grads = {p.name: p.grad.copy() for p in model.registry}

    model.registry.zero_grad()
    model.encoder = OracleNet(model.encoder)
    model.prediction.net = OracleNet(model.prediction.net)
    loss_o = model.batch_loss_and_grad(batch)

    npt.assert_allclose(loss, loss_o, **TOL)
    for p in model.registry:
        npt.assert_allclose(grads[p.name], p.grad, **TOL, err_msg=p.name)
