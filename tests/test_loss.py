import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from transducerkit.joint import PackedLattice
from transducerkit.loss import (
    brute_force_loss,
    forward_backward,
    grad_logits_chain,
    grad_logits_merged,
    grad_posterior,
)
from transducerkit.tensor import softmax, softmax_inplace

import loss_oracle


def pack(blocks):
    return PackedLattice.from_blocks(blocks)


def random_instance(rng, t_max=4, u_max=3, k_max=4):
    t = int(rng.integers(1, t_max + 1))
    u = int(rng.integers(0, u_max + 1))
    k = int(rng.integers(2, k_max + 1))
    probs = softmax(rng.normal(scale=2.0, size=(t, u + 1, k)))
    labels = rng.integers(1, k, size=u).tolist()
    return probs, labels


def diagonal_log_likelihoods(ws, n):
    """logsumexp of alpha+beta along every anti-diagonal of sequence n.

    Every entry equals the sequence log-likelihood.
    """
    la, lb = ws.log_alpha[n], ws.log_beta[n]
    t_n, u1_n = la.shape
    out = []
    for diag in range(t_n + u1_n - 1):
        terms = []
        for t in range(t_n):
            u = diag - t
            if 0 <= u < u1_n:
                terms.append(la[t, u] + lb[t, u])
        m = max(terms)
        if m == -np.inf:
            out.append(-np.inf)
        else:
            out.append(m + np.log(sum(np.exp(v - m) for v in terms)))
    return out


def traced_peak(fn):
    """tracemalloc peak of ``fn()`` in bytes, above what was live at the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def uniform_case():
    # T=2, U=1, K=2 with every posterior 0.5; two lattice paths of 0.125 each
    probs = np.full((2, 2, 2), 0.5)
    return probs, [1]


class TestForwardBackward:
    def test_worked_example(self):
        probs, labels = uniform_case()
        ws = forward_backward(pack([probs]), [labels])
        assert abs(ws.losses[0] - math.log(4.0)) < 1e-12
        assert abs(ws.log_like[0] - math.log(0.25)) < 1e-12

    def test_single_forced_path(self):
        for p in (0.9, 0.25, 1e-8):
            probs = np.array([[[p, 1.0 - p]]])
            ws = forward_backward(pack([probs]), [[]])
            assert abs(ws.losses[0] - (-math.log(p))) < 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            probs, labels = random_instance(rng)
            ws = forward_backward(pack([probs]), [labels])
            oracle = brute_force_loss(probs, labels)
            assert abs(ws.losses[0] - oracle) < 1e-10

    def test_alpha_beta_agree_on_likelihood(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs, labels = random_instance(rng)
            ws = forward_backward(pack([probs]), [labels])
            la, lb = ws.log_alpha[0], ws.log_beta[0]
            t_n, u1_n = la.shape
            # alpha path: P(y|x) = alpha(T,U) * P(blank|T,U)
            from_alpha = la[t_n - 1, u1_n - 1] + math.log(probs[t_n - 1, u1_n - 1, 0])
            assert abs(from_alpha - ws.log_like[0]) < 1e-10

    def test_diagonal_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            probs, labels = random_instance(rng)
            ws = forward_backward(pack([probs]), [labels])
            for value in diagonal_log_likelihoods(ws, 0):
                assert abs(value - ws.log_like[0]) < 1e-8

    def test_multi_sequence_batch(self):
        rng = np.random.default_rng(3)
        blocks, labels_list = [], []
        for _ in range(3):
            probs, labels = random_instance(rng, k_max=4)
            while probs.shape[-1] != 4:
                probs, labels = random_instance(rng, k_max=4)
            blocks.append(probs)
            labels_list.append(labels)
        ws = forward_backward(pack(blocks), labels_list)
        for n in range(3):
            solo = forward_backward(pack([blocks[n]]), [labels_list[n]])
            assert abs(ws.losses[n] - solo.losses[0]) < 1e-12

    def test_normalization_checked(self):
        probs = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            forward_backward(pack([probs]), [[1]])

    def test_label_validation(self):
        probs, _ = uniform_case()
        with pytest.raises(ValueError):
            forward_backward(pack([probs]), [[0]])  # blank inside labels
        with pytest.raises(ValueError):
            forward_backward(pack([probs]), [[5]])  # out of range
        with pytest.raises(ValueError):
            forward_backward(pack([probs]), [[1, 1]])  # wrong label count

    def test_log_domain_stability(self):
        # posteriors down at 1e-300 must not produce NaN or inf anywhere
        tiny = 1e-300
        probs = np.full((3, 3, 3), tiny)
        probs[:, :, 0] = 1.0 - 4 * tiny
        probs[:, :, 1] = 3 * tiny
        ws = forward_backward(pack([probs]), [[1, 1]])
        assert np.isfinite(ws.losses[0])
        d = grad_logits_merged(ws)
        assert np.isfinite(d.data).all()


class TestBruteForce:
    def test_uniform_case_paths(self):
        probs, labels = uniform_case()
        assert abs(brute_force_loss(probs, labels) - math.log(4.0)) < 1e-12

    def test_u_zero_single_path(self):
        rng = np.random.default_rng(4)
        probs = softmax(rng.normal(size=(3, 1, 2)))
        expect = -np.log(probs[0, 0, 0] * probs[1, 0, 0] * probs[2, 0, 0])
        assert abs(brute_force_loss(probs, []) - expect) < 1e-12

    def test_path_count(self):
        # number of monotone paths is C(T-1+U, U)
        from itertools import combinations

        for t, u in ((2, 1), (3, 2), (4, 3)):
            count = sum(1 for _ in combinations(range(t - 1 + u), u))
            assert count == math.comb(t - 1 + u, u)

    def test_too_large_rejected(self):
        probs = np.full((40, 31, 2), 0.5)
        with pytest.raises(ValueError):
            brute_force_loss(probs, [1] * 30)


class TestGradPosterior:
    def test_worked_example_value(self):
        probs, labels = uniform_case()
        ws = forward_backward(pack([probs]), [labels])
        d = grad_posterior(ws)
        # -(alpha(1,0)/P) * beta(1,1) = -(1 * 0.25)/0.25 = -1
        assert abs(d.block(0)[0, 0, 1] - (-1.0)) < 1e-12

    def test_zero_outside_blank_and_label(self):
        rng = np.random.default_rng(5)
        probs = softmax(rng.normal(size=(3, 3, 4)))
        labels = [2, 2]
        ws = forward_backward(pack([probs]), [labels])
        d = grad_posterior(ws).block(0)
        for t in range(3):
            for u in range(3):
                for k in range(4):
                    if k == 0 or (u < 2 and k == labels[u]):
                        continue
                    assert d[t, u, k] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            probs, labels = random_instance(rng, t_max=3, u_max=2, k_max=3)
            ws = forward_backward(pack([probs]), [labels])
            d = grad_posterior(ws).block(0)
            step = 1e-7
            for idx in np.ndindex(probs.shape):
                up = probs.copy(); up[idx] += step
                dn = probs.copy(); dn[idx] -= step
                lu = forward_backward(pack([up]), [labels], check_normalized=False).losses[0]
                ld = forward_backward(pack([dn]), [labels], check_normalized=False).losses[0]
                num = (lu - ld) / (2 * step)
                # gradients scale like alpha*beta/P(y|x) and can be large;
                # tolerance is relative above magnitude 1
                assert abs(num - d[idx]) < 1e-6 * max(1.0, abs(num), abs(d[idx]))


class TestMergedGradient:
    def test_equals_chain_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            probs, labels = random_instance(rng)
            ws = forward_backward(pack([probs]), [labels])
            chain = grad_logits_chain(ws).data.copy()
            ws2 = forward_backward(pack([probs.copy()]), [labels])
            merged = grad_logits_merged(ws2).data
            npt.assert_allclose(merged, chain, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs, labels = random_instance(rng)
            ws = forward_backward(pack([probs]), [labels])
            merged = grad_logits_merged(ws)
            sums = merged.data.sum(axis=-1)
            assert np.abs(sums).max() < 1e-10

    def test_matches_logit_finite_differences(self):
        rng = np.random.default_rng(9)

        def loss_from_logits(logits, labels):
            buf = logits.copy()
            softmax_inplace(buf.reshape(-1, buf.shape[-1]))
            return forward_backward(pack([buf]), [labels]).losses[0]

        for _ in range(5):
            t, u, k = 3, 2, 3
            logits = rng.normal(scale=1.5, size=(t, u + 1, k))
            labels = rng.integers(1, k, size=u).tolist()
            buf = logits.copy()
            softmax_inplace(buf.reshape(-1, k))
            ws = forward_backward(pack([buf]), [labels])
            merged = grad_logits_merged(ws).block(0)
            step = 1e-5
            for idx in np.ndindex(logits.shape):
                up = logits.copy(); up[idx] += step
                dn = logits.copy(); dn[idx] -= step
                num = (loss_from_logits(up, labels) - loss_from_logits(dn, labels)) / (2 * step)
                assert abs(num - merged[idx]) < 1e-6

    def test_in_place_no_new_buffer(self):
        probs, labels = uniform_case()
        lat = pack([probs])
        ws = forward_backward(lat, [labels])
        out = grad_logits_merged(ws)
        assert out is lat
        assert out.data is lat.data

    def test_allocation_counts_merged_vs_chain(self):
        # one (40, 11, 200) lattice of 704 KB. At this size numpy reuses its
        # elementwise temporaries, so the chain rule's excess is its two
        # lattice-sized results; below 256 KiB each temporary is a fresh
        # buffer and the excess nears three lattices.
        rng = np.random.default_rng(10)
        probs = softmax(rng.normal(scale=2.0, size=(40, 11, 200)))
        labels = rng.integers(1, 200, size=10).tolist()
        ws_merged = forward_backward(pack([probs.copy()]), [labels])
        ws_chain = forward_backward(pack([probs.copy()]), [labels])

        merged = traced_peak(lambda: grad_logits_merged(ws_merged))
        chain = traced_peak(lambda: grad_logits_chain(ws_chain))
        assert merged < 0.05 * probs.nbytes  # in place: no lattice-sized buffer
        assert chain - merged >= 1.9 * probs.nbytes  # posterior and logit gradients

    def test_phase_flag(self):
        probs, labels = uniform_case()
        ws = forward_backward(pack([probs]), [labels])
        grad_logits_merged(ws)
        with pytest.raises(ValueError):
            grad_logits_merged(ws)
        with pytest.raises(ValueError):
            grad_posterior(ws)


def assert_matches_oracle(blocks, labels_list):
    """forward_backward and grad_logits_merged against the per-cell oracle,
    bit for bit: alpha, beta, log-likelihoods, losses and merged gradient."""
    lattice, reference = pack(blocks), pack(blocks)
    ws = forward_backward(lattice, labels_list)
    expect = loss_oracle.forward_backward(reference, labels_list)
    for n, (la, lb, ll) in enumerate(expect):
        npt.assert_array_equal(ws.log_alpha[n], la)
        npt.assert_array_equal(ws.log_beta[n], lb)
        assert ws.log_like[n] == ll and ws.losses[n] == -ll
    grad_logits_merged(ws)
    loss_oracle.merged_gradient(reference, labels_list, expect)
    npt.assert_array_equal(lattice.data, reference.data)
    return ws


def random_block(rng, t, u, k):
    probs = softmax(rng.normal(scale=2.0, size=(t, u + 1, k)))
    return probs, rng.integers(1, k, size=u).tolist()


class TestWavefrontAgainstOracle:
    EDGE_SHAPES = ((1, 0), (1, 3), (5, 0))  # T=1, U=0, and both

    def test_edge_shapes_alone(self):
        rng = np.random.default_rng(20)
        for t, u in self.EDGE_SHAPES:
            probs, labels = random_block(rng, t, u, 5)
            ws = assert_matches_oracle([probs], [labels])
            assert abs(ws.losses[0] - brute_force_loss(probs, labels)) < 1e-10

    def test_edge_shapes_packed_beside_long_lattices(self):
        # the short lattices' padding in the skewed storage spans the long
        # lattices' diagonals; none of it may leak into a lattice cell
        rng = np.random.default_rng(21)
        for _ in range(3):
            shapes = [(40, 12), *self.EDGE_SHAPES, (3, 30)]
            rng.shuffle(shapes)
            pairs = [random_block(rng, t, u, 7) for t, u in shapes]
            ws = assert_matches_oracle([p for p, _ in pairs], [l for _, l in pairs])
            for n, (probs, labels) in enumerate(pairs):
                if probs.shape[0] + probs.shape[1] < 8:
                    assert abs(ws.losses[n] - brute_force_loss(probs, labels)) < 1e-10

    def test_fuzz_mixed_batches(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            pairs = [
                random_block(rng, int(rng.integers(1, 7)), int(rng.integers(0, 5)), k)
                for _ in range(int(rng.integers(1, 7)))
            ]
            ws = assert_matches_oracle([p for p, _ in pairs], [l for _, l in pairs])
            for n, (probs, labels) in enumerate(pairs):
                assert abs(ws.losses[n] - brute_force_loss(probs, labels)) < 1e-10

    def test_exact_zero_posteriors(self):
        # zeros make whole regions of alpha and beta -inf; they must match
        # the oracle without any divide or invalid-value warning
        rng = np.random.default_rng(23)
        long_probs, long_labels = random_block(rng, 6, 3, 4)
        probs = rng.uniform(0.5, 1.0, size=(4, 3, 4))
        probs[0, 0, 0] = 0.0  # no blank at the start: alpha(t, 0) = -inf for t >= 1
        probs[3, 1, 2] = 0.0  # label 2 is not emitted in the last frame: beta(3, 1) = -inf
        probs /= probs.sum(axis=-1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ws = assert_matches_oracle([long_probs, probs], [long_labels, [1, 2]])
        assert np.isfinite(ws.losses).all()
        assert np.isneginf(ws.log_alpha[1]).any() and np.isneginf(ws.log_beta[1]).any()
        assert abs(ws.losses[1] - brute_force_loss(probs, [1, 2])) < 1e-10

    def test_forward_backward_peak_memory(self):
        # the geometry, the skewed diagonals and the per-row lattices are
        # all (rows,)-sized: together well under a tenth of the K=200 buffer
        rng = np.random.default_rng(24)
        probs = softmax(rng.normal(scale=2.0, size=(40, 11, 200)))
        lattice = pack([probs])
        labels = rng.integers(1, 200, size=10).tolist()
        assert traced_peak(lambda: forward_backward(lattice, [labels])) < 0.1 * probs.nbytes
