import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.joint import (
    BUILTIN_DISTS,
    BatchSpec,
    JointNetwork,
    PackedLattice,
    combine_broadcast_reference,
    footprint,
    max_batch,
    sample_length_pairs,
)
from transducerkit.tensor import ParamRegistry, grad_check


def make_joint(enc_dim=3, pre_dim=2, joint_dim=4, num_labels=5, seed=0):
    reg = ParamRegistry()
    net = JointNetwork(reg, "joint", enc_dim, pre_dim, joint_dim, num_labels,
                       np.random.default_rng(seed))
    return reg, net


def random_io(net, lengths, seed=1):
    rng = np.random.default_rng(seed)
    enc = [rng.normal(size=(t, net.enc_dim)) for t, _ in lengths]
    pre = [rng.normal(size=(u1, net.pre_dim)) for _, u1 in lengths]
    return enc, pre


class TestPackedLattice:
    def test_row_addressing(self):
        # row (n, t, u) lives at offsets[n] + t*(U_n+1) + u
        lat = PackedLattice(np.arange(34 * 4, dtype=float).reshape(34, 4), [(3, 3), (5, 5)])
        assert lat.offsets == [0, 9]
        npt.assert_array_equal(lat.block(0)[2, 1], lat.data[7])
        npt.assert_array_equal(lat.block(1)[0, 0], lat.data[9])
        npt.assert_array_equal(lat.block(1)[4, 4], lat.data[33])
        assert lat.block(0).shape == (3, 3, 4) and lat.block(1).shape == (5, 5, 4)

    def test_row_count_validated(self):
        with pytest.raises(ValueError):
            PackedLattice(np.zeros((5, 2)), [(2, 2)])

    def test_example_dims(self):
        # two sequences with (T, U+1) = (3,3) and (5,5) at width 4
        data = np.zeros((3 * 3 + 5 * 5, 4))
        lat = PackedLattice(data, [(3, 3), (5, 5)])
        assert lat.data.shape[0] == 34
        assert lat.data.size == 136


class TestCombine:
    def test_zero_weights_all_zero(self):
        reg, net = make_joint()
        net.u_mat.value[...] = 0.0
        net.v_mat.value[...] = 0.0
        enc, pre = random_io(net, [(3, 2), (2, 4)])
        z, _ = net.combine_packed(enc, pre)
        npt.assert_array_equal(z.data, np.zeros_like(z.data))

    def test_smallest_lattice(self):
        reg, net = make_joint()
        enc, pre = random_io(net, [(1, 1)])
        z, _ = net.combine_packed(enc, pre)
        expect = np.tanh(
            enc[0][0] @ net.u_mat.value + pre[0][0] @ net.v_mat.value + net.b_z.value
        )
        assert z.data.shape == (1, 4)
        npt.assert_allclose(z.data[0], expect, atol=1e-15)

    def test_matches_broadcast_reference(self):
        reg, net = make_joint(seed=2)
        lengths = [(3, 3), (5, 5), (2, 1)]
        enc, pre = random_io(net, lengths, seed=3)
        z, _ = net.combine_packed(enc, pre)
        ref = combine_broadcast_reference(net, enc, pre)
        for n, (t_n, u1_n) in enumerate(lengths):
            npt.assert_allclose(z.block(n), ref[n, :t_n, :u1_n, :], atol=1e-12)

    def test_allocation_matches_model(self):
        # lattice of 343 KB, so a second lattice or a retained per-sequence
        # projection would break the 4 KiB allowance on what stays held
        reg, net = make_joint(joint_dim=16)
        enc, pre = random_io(net, [(30, 21), (50, 41)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            z, cache = net.combine_packed(enc, pre)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        spec = BatchSpec([(30, 20), (50, 40)], joint_dim=16, num_labels=5)
        assert z.data.nbytes == footprint(spec, "packed", "z")
        assert held <= z.data.nbytes + 4096

    def test_width_mismatch(self):
        reg, net = make_joint()
        with pytest.raises(ValueError):
            net.combine_packed([np.zeros((2, 7))], [np.zeros((1, 2))])


class TestProjectLogits:
    def test_zero_weight_gives_bias(self):
        reg, net = make_joint()
        net.w_out.value[...] = 0.0
        net.b_out.value[...] = np.arange(5.0)
        enc, pre = random_io(net, [(2, 2)])
        z, _ = net.combine_packed(enc, pre)
        logits = net.project_logits(z)
        for row in logits.data:
            npt.assert_array_equal(row, np.arange(5.0))

    def test_passthrough_plus_bias(self):
        reg, net = make_joint(joint_dim=2, num_labels=2)
        net.w_out.value[...] = np.eye(2)
        net.b_out.value[...] = [0.5, -0.5]
        z = PackedLattice(np.array([[1.0, 2.0], [3.0, 4.0]]), [(2, 1)])
        logits = net.project_logits(z)
        npt.assert_allclose(logits.data, [[1.5, 1.5], [3.5, 3.5]])

    def test_width_checked(self):
        reg, net = make_joint()
        with pytest.raises(ValueError):
            net.project_logits(PackedLattice(np.zeros((2, 9)), [(2, 1)]))


class TestJointBackward:
    def test_params_finite_differences(self):
        reg, net = make_joint(seed=4)
        lengths = [(3, 2), (2, 3)]
        enc, pre = random_io(net, lengths, seed=5)
        rng = np.random.default_rng(6)
        probes = rng.normal(size=(3 * 2 + 2 * 3, net.num_labels))

        def loss():
            z, cache = net.combine_packed(enc, pre)
            logits = net.project_logits(z)
            net.backward(PackedLattice(probes.copy(), logits.dims), cache)
            return float((logits.data * probes).sum())

        assert grad_check(loss, reg, step=1e-5) < 1e-5

    def test_input_grads_finite_differences(self):
        reg, net = make_joint(seed=7)
        lengths = [(2, 2)]
        enc, pre = random_io(net, lengths, seed=8)
        rng = np.random.default_rng(9)
        probes = rng.normal(size=(4, net.num_labels))

        def forward(e, p):
            z, _ = net.combine_packed(e, p)
            return float((net.project_logits(z).data * probes).sum())

        z, cache = net.combine_packed(enc, pre)
        logits = net.project_logits(z)
        d_enc, d_pre = net.backward(PackedLattice(probes.copy(), logits.dims), cache)
        step = 1e-6
        for arrs, grads in ((enc, d_enc), (pre, d_pre)):
            for n, arr in enumerate(arrs):
                for idx in np.ndindex(arr.shape):
                    up = [a.copy() for a in arrs]
                    dn = [a.copy() for a in arrs]
                    up[n][idx] += step
                    dn[n][idx] -= step
                    num = (
                        (forward(up, pre) - forward(dn, pre))
                        if arrs is enc
                        else (forward(enc, up) - forward(enc, dn))
                    ) / (2 * step)
                    assert abs(num - grads[n][idx]) < 1e-6

    def test_grad_shapes(self):
        reg, net = make_joint()
        lengths = [(4, 2), (3, 5)]
        enc, pre = random_io(net, lengths)
        z, cache = net.combine_packed(enc, pre)
        logits = net.project_logits(z)
        d_enc, d_pre = net.backward(logits, cache)
        for n, (t, u1) in enumerate(lengths):
            assert d_enc[n].shape == (t, net.enc_dim)
            assert d_pre[n].shape == (u1, net.pre_dim)


class TestFootprint:
    def test_equal_lengths_layouts_agree(self):
        spec = BatchSpec([(4, 3)] * 5, joint_dim=8, num_labels=10)
        for stage in ("z", "logits"):
            assert footprint(spec, "packed", stage) == footprint(spec, "broadcast", stage)

    def test_worked_example(self):
        # (T, U+1) = (3,3) and (5,5), D=4: 136 packed scalars vs 200 broadcast
        spec = BatchSpec([(3, 2), (5, 4)], joint_dim=4, num_labels=3)
        assert footprint(spec, "packed", "z") == 136 * 8 == 1088
        assert footprint(spec, "broadcast", "z") == 200 * 8 == 1600

    def test_packed_never_larger(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            lengths = [(int(rng.integers(1, 30)), int(rng.integers(0, 12))) for _ in range(n)]
            spec = BatchSpec(lengths, joint_dim=4, num_labels=7)
            packed = footprint(spec, "packed", "z")
            broadcast = footprint(spec, "broadcast", "z")
            assert packed <= broadcast
            if len(set(lengths)) == 1:
                assert packed == broadcast
            if packed == broadcast:
                # equality only when every (T, U) pair is maximal in both dims
                max_t = max(t for t, _ in lengths)
                max_u = max(u for _, u in lengths)
                assert all(t == max_t and u == max_u for t, u in lengths)

    def test_bad_args(self):
        spec = BatchSpec([(2, 1)], joint_dim=2, num_labels=3)
        with pytest.raises(ValueError):
            footprint(spec, "padded", "z")
        with pytest.raises(ValueError):
            footprint(spec, "packed", "grad")
        with pytest.raises(ValueError):
            BatchSpec([(0, 1)], joint_dim=2, num_labels=3)


class TestMaxBatch:
    def test_budget_doubling(self):
        pairs = sample_length_pairs((10, 100), (2, 20))
        for layout in ("packed", "broadcast"):
            for variant in ("merged", "chain_rule"):
                n1 = max_batch(pairs, 1e8, layout, variant, 640, 4096)
                n2 = max_batch(pairs, 2e8, layout, variant, 640, 4096)
                assert n2 >= 2 * n1

    def test_budget_below_one_sequence(self):
        pairs = [(100, 10)]
        assert max_batch(pairs, 8, "packed", "merged", 640, 4096) == 0
        with pytest.raises(ValueError):
            max_batch(pairs, 0, "packed", "merged", 640, 4096)

    def test_merged_ratio_equal_lengths(self):
        # equal lengths: the analytic max-N ratio is (z + 3K)/(z + K)
        pairs = [(200, 19)] * 64
        d, k, budget = 640, 4096, 1e12
        n_merged = max_batch(pairs, budget, "packed", "merged", d, k)
        n_chain = max_batch(pairs, budget, "packed", "chain_rule", d, k)
        assert n_merged > n_chain >= 1
        assert n_merged / n_chain >= (d + k) / (d + 3 * k)
        analytic = (d + 3 * k) / (d + k)
        assert abs(n_merged / n_chain - analytic) / analytic < 0.01

    def test_direction_of_output_size(self):
        pairs = sample_length_pairs((50, 400), (5, 40))
        budget = 16e9
        for k in (4096, 36000):
            merged = max_batch(pairs, budget, "packed", "merged", 640, k)
            chain = max_batch(pairs, budget, "broadcast", "chain_rule", 640, k)
            assert merged > chain
        small_ratio = max_batch(pairs, budget, "packed", "merged", 640, 4096) / max_batch(
            pairs, budget, "broadcast", "chain_rule", 640, 4096
        )
        large_ratio = max_batch(pairs, budget, "packed", "merged", 640, 36000) / max_batch(
            pairs, budget, "broadcast", "chain_rule", 640, 36000
        )
        assert large_ratio > small_ratio

    def test_builtin_dists(self):
        for name, factory in BUILTIN_DISTS.items():
            pairs = factory()
            assert len(pairs) > 0
            assert max_batch(pairs, 1e9, "packed", "merged", 640, 4096) > 0
