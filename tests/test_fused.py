"""Fused-gate sequence kernels against the per-gate, per-frame scalar oracle."""

import dataclasses
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scalar_oracle import GateView, OracleNet, legacy_cell_draws, legacy_uniform

from transducerkit import config as tk_config
from transducerkit.cells import LnGruCell, LnLstmCell
from transducerkit.data import gen_synthetic
from transducerkit.joint import JointNetwork
from transducerkit.model import TransducerModel
from transducerkit.networks import LSTM_KINDS, NetConfig, PredictionNet, SequenceNet
from transducerkit.packing import Packing
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


# Minibatches for the batched kernel: T=1, equal lengths, every T <= tau
# (tau 2), a single utterance.
BATCHES = {
    "mixed": [5, 1, 3, 5, 2, 1],
    "equal": [3, 3, 3],
    "short": [2, 1, 2],
    "single": [4],
}
BATCH_WIRINGS = [
    *[(kind, 0) for kind in ("ln_lstm", "lt_lstm", "ln_gru", "lt_gru")],
    *[(kind, tau) for kind in ("clt_lstm", "eclt_gru") for tau in (0, 2)],
]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind,tau", BATCH_WIRINGS)
def test_batched_network_matches_per_utterance_oracle(kind, tau, batch):
    """One packed pass over the minibatch gives each utterance's oracle
    outputs and input gradients, and the oracle parameter gradients summed
    over the utterances."""
    reg, net = perturbed_net(kind, tau)
    rng = np.random.default_rng(19)
    lengths = BATCHES[batch]
    xs = [rng.normal(size=(T, 4)) for T in lengths]
    probes = [rng.normal(size=(T, net.out_dim)) for T in lengths]
    pack = Packing(lengths)

    reg.zero_grad()
    outs, cache = net.forward(pack.pack(xs), pack)
    d_xs = net.backward(pack.pack(probes), cache)
    grads = {p.name: p.grad.copy() for p in reg}

    reg.zero_grad()
    oracle = OracleNet(net)
    for x, probe, out, d_x in zip(xs, probes, pack.unpack(outs), pack.unpack(d_xs)):
        out_o, cache_o = oracle.forward(x)
        npt.assert_allclose(out, out_o, **TOL)
        npt.assert_allclose(d_x, oracle.backward(probe, cache_o), **TOL)
    for p in reg:
        npt.assert_allclose(grads[p.name], p.grad, **TOL, err_msg=p.name)


@pytest.mark.parametrize("kind", ["ln_lstm", "ln_gru"])
def test_batched_prediction_matches_per_utterance_oracle(kind):
    # empty label sequences (U=0), repeated tokens, a longest sequence that
    # is not first in the batch
    kwargs = dict(projection=3) if kind in LSTM_KINDS else {}
    reg = ParamRegistry()
    cfg = NetConfig(cell_kind=kind, num_layers=2, hidden=5, input_dim=3, **kwargs)
    pred = PredictionNet(reg, "pre", cfg, 6, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for p in reg:
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    batch = [[], [3, 1, 3], [5], [2, 2, 4, 1], []]
    pack = Packing([len(labels) + 1 for labels in batch])
    probes = [rng.normal(size=(len(labels) + 1, pred.out_dim)) for labels in batch]

    reg.zero_grad()
    outs, cache = pred.forward(batch, pack)
    pred.backward(pack.pack(probes), cache)
    grads = {p.name: p.grad.copy() for p in reg}

    reg.zero_grad()
    pred.net = OracleNet(pred.net)
    for labels, probe, out in zip(batch, probes, pack.unpack(outs)):
        out_o, cache_o = pred.forward(labels)
        npt.assert_allclose(out, out_o, **TOL)
        pred.backward(probe, cache_o)
    for p in reg:
        npt.assert_allclose(grads[p.name], p.grad, **TOL, err_msg=p.name)


@pytest.mark.parametrize("name", CONFIGS)
def test_model_batch_matches_sum_of_single_utterances(name):
    model = TransducerModel(model_config(name))
    batch = frozen_batch(num=5, seed=13)
    model.registry.zero_grad()
    loss = model.batch_loss_and_grad(batch)
    grads = {p.name: p.grad * len(batch) for p in model.registry}  # sum, not mean, over utterances

    model.registry.zero_grad()
    losses = [model.batch_loss_and_grad([utt]) for utt in batch]
    npt.assert_allclose(loss, np.mean(losses), **TOL)
    for p in model.registry:
        npt.assert_allclose(grads[p.name], p.grad, **TOL, err_msg=p.name)


# The first depth layer's input slot is the zero array (SequenceNet.forward
# starts the depth column from np.zeros_like), so the gradient of its input
# weights is exactly 0.0 and they never train. Removing them changes fresh
# initialization and the checkpoint layout: ROADMAP item 3 does it.
DEAD_ON_TRAJECTORY_ENCODERS = {"enc.l0.depth.wx"}


@pytest.mark.parametrize("name", CONFIGS)
def test_every_parameter_array_learns(name):
    model = TransducerModel(model_config(name))
    model.registry.zero_grad()
    model.batch_loss_and_grad(frozen_batch(num=6, seed=11))
    exempt = DEAD_ON_TRAJECTORY_ENCODERS if model.cfg.encoder.is_trajectory else set()
    # equality: a new all-zero array fails, and so does a stale exemption
    assert {p.name for p in model.registry if not p.grad.any()} == exempt


def test_empty_utterance_named_by_position():
    model = TransducerModel(model_config("quickstart.cfg"))
    batch = frozen_batch(num=3)
    batch[1] = (batch[1][0][:0], batch[1][1])
    with pytest.raises(ValueError, match="utterance 1 of the minibatch is empty"):
        model.batch_loss_and_grad(batch)


# tracemalloc peak of batch_loss_and_grad on the 11-utterance minibatch
# below with quickstart.cfg, as the per-utterance networks measured it
# (5.747 MB); the packed networks must stay at or below it.
PER_UTTERANCE_PEAK = 5.74e6


def test_batch_loss_and_grad_peak_bounded():
    model = TransducerModel(model_config("quickstart.cfg"))
    batch = frozen_batch(num=11, seed=3)
    model.batch_loss_and_grad(batch)  # first call fills lazy caches
    model.registry.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.batch_loss_and_grad(batch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= PER_UTTERANCE_PEAK, peak
