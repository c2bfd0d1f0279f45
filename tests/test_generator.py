import json
import pickle

import numpy as np
import pytest

from genrec.generator import (Activation, GeneratorNetwork, compose_linear,
                              forward, forward_pattern, jacobian,
                              layer_preactivations, net_from_dict, net_to_dict,
                              random_gaussian_net, region_maps, zero_bias)

from conftest import kink_free, make_linear_net


def straight_line_forward(net, z):
    """Independent forward pass: explicit loops, no shared code paths."""
    a = [float(v) for v in z]
    for w, b in zip(net.weights, net.biases):
        out = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            if net.activation.kind == "relu":
                acc = acc if acc >= 0 else 0.0
            elif net.activation.kind == "leaky_relu":
                acc = acc if acc >= 0 else net.activation.h * acc
            out.append(acc)
        a = out
    return np.array(a)


def central_difference_jacobian(net, z, step=1e-5):
    k = net.k
    cols = []
    for j in range(k):
        dz = np.zeros(k)
        dz[j] = step
        cols.append((forward(net, z + dz) - forward(net, z - dz)) / (2 * step))
    return np.stack(cols, axis=1)


class TestConstruction:
    def test_random_net_shapes(self):
        net = random_gaussian_net([2, 3], Activation("identity"), 5)
        assert net.weights[0].shape == (3, 2)
        assert net.biases[0].shape == (3,)
        assert np.all(np.isfinite(net.weights[0]))

    def test_same_seed_bitwise_equal(self):
        a = random_gaussian_net([4, 7, 9], Activation("relu"), 42)
        b = random_gaussian_net([4, 7, 9], Activation("relu"), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(a.biases, b.biases):
            assert ba.tobytes() == bb.tobytes()

    def test_vae_decoder_widths_expressible(self):
        net = random_gaussian_net([20, 500, 500, 784], Activation("relu"), 1)
        assert net.k == 20 and net.n == 784 and net.depth == 3

    @pytest.mark.parametrize("dims", [[], [3], [0, 4], [4, 0]])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            random_gaussian_net(dims, Activation("identity"), 0)

    def test_bad_leaky_slope_rejected(self):
        for h in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                Activation("leaky_relu", h)

    def test_weights_immutable(self):
        net = random_gaussian_net([2, 3], Activation("identity"), 0)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0


class TestForward:
    def test_identity_single_layer(self):
        net = make_linear_net([np.eye(3)])
        z = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(forward(net, z), z)

    def test_scalar_leaky_relu(self):
        net = GeneratorNetwork((1, 1), (np.array([[1.0]]),), (np.zeros(1),),
                               Activation("leaky_relu", 0.5), 0)
        assert forward(net, [-2.0])[0] == -1.0

    def test_matches_straight_line_evaluator(self, rng):
        for kind, h in [("identity", 1.0), ("relu", 1.0), ("leaky_relu", 0.3)]:
            net = random_gaussian_net([3, 6, 5, 8], Activation(kind, h),
                                      int(rng.integers(2**31)))
            for _ in range(100):
                z = rng.standard_normal(3)
                np.testing.assert_allclose(forward(net, z),
                                           straight_line_forward(net, z),
                                           rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        net = random_gaussian_net([3, 5], Activation("identity"), 0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))

    @pytest.mark.parametrize("kind, h", [("identity", 1.0), ("relu", 1.0),
                                         ("leaky_relu", 0.2)])
    def test_block_rows_equal_single_calls(self, rng, kind, h):
        net = random_gaussian_net([5, 30, 60], Activation(kind, h), 4)
        block = rng.standard_normal((7, 5))
        out, jac = forward(net, block), jacobian(net, block)
        assert out.shape == (7, 60) and jac.shape == (7, 60, 5)
        for i, z in enumerate(block):
            assert out[i].tobytes() == forward(net, z).tobytes()
            assert jac[i].tobytes() == jacobian(net, z).tobytes()

    def test_block_shape_validated(self):
        net = random_gaussian_net([3, 5], Activation("identity"), 0)
        for bad in (np.zeros((2, 4)), np.zeros((1, 2, 3)), 1.0):
            with pytest.raises(ValueError):
                forward(net, bad)
            with pytest.raises(ValueError):
                jacobian(net, bad)


class TestJacobian:
    def test_single_layer_identity_is_weight_matrix(self, rng):
        net = random_gaussian_net([4, 6], Activation("identity"), 3)
        z = rng.standard_normal(4)
        np.testing.assert_array_equal(jacobian(net, z), net.weights[0])

    def test_scalar_leaky_chain_rule(self):
        net = GeneratorNetwork((1, 1), (np.array([[2.0]]),), (np.zeros(1),),
                               Activation("leaky_relu", 0.5), 0)
        assert jacobian(net, [-1.0])[0, 0] == 1.0  # 0.5 * 2

    def test_kink_takes_nonnegative_branch(self):
        net = GeneratorNetwork((1, 1), (np.array([[2.0]]),), (np.zeros(1),),
                               Activation("relu"), 0)
        assert jacobian(net, [0.0])[0, 0] == 2.0

    def test_matches_central_differences(self, rng):
        net = random_gaussian_net([4, 12, 10, 16], Activation("relu"), 9)
        hits = 0
        while hits < 20:
            z = rng.standard_normal(4)
            if not kink_free(net, z):
                continue
            hits += 1
            jac = jacobian(net, z)
            fd = central_difference_jacobian(net, z)
            err = np.max(np.abs(jac - fd)) / np.max(np.abs(jac))
            assert err < 1e-5


KINDS = [("identity", 1.0), ("relu", 1.0), ("leaky_relu", 0.2)]


class TestActivationPattern:
    @pytest.mark.parametrize("kind, h", KINDS)
    def test_forward_pattern_matches_forward_and_preactivations(self, rng, kind, h):
        net = random_gaussian_net([5, 30, 60], Activation(kind, h), 4)
        block = rng.standard_normal((7, 5))
        x, pat = forward_pattern(net, block)
        assert x.tobytes() == forward(net, block).tobytes()
        assert pat.dtype == bool and pat.shape == (7, 0 if kind == "identity" else 90)
        pres = layer_preactivations(net, block)
        for i, z in enumerate(block):
            x_i, pat_i = forward_pattern(net, z)
            assert x_i.tobytes() == forward(net, z).tobytes() == x[i].tobytes()
            assert np.array_equal(pat_i, pat[i])
            single = layer_preactivations(net, z)
            assert all(p[i].tobytes() == q.tobytes() for p, q in zip(pres, single))
            if kind != "identity":
                assert np.array_equal(pat_i, np.concatenate(single) >= 0)

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_jacobian_depends_only_on_pattern(self, rng, kind, h):
        net = random_gaussian_net([4, 12, 10, 16], Activation(kind, h), 9)
        hits = 0
        while hits < 10:
            z = rng.standard_normal(4)
            if not kink_free(net, z):
                continue
            hits += 1
            other = z + 1e-6 * rng.standard_normal(4)
            assert np.array_equal(forward_pattern(net, z)[1], forward_pattern(net, other)[1])
            assert forward(net, z).tobytes() != forward(net, other).tobytes()
            assert jacobian(net, z).tobytes() == jacobian(net, other).tobytes()


class TestRegionMaps:
    """On its activation region a net is affine: pre-activations P z + p and
    G(z) = J z + g, with maps built from the pattern alone."""

    # Fixed before measuring: the maps and the layer loop round differently,
    # by a few ulps of the largest magnitude in a k- to n-term sum.
    TOL = 1e-12

    @pytest.mark.parametrize("kind, h", KINDS)
    @pytest.mark.parametrize("dims", [[5, 30, 60], [4, 12, 10, 16], [3, 7]])
    def test_maps_reproduce_the_layers(self, rng, kind, h, dims):
        net = random_gaussian_net(dims, Activation(kind, h), 11)
        block = rng.standard_normal((6, net.k))
        x, pat = forward_pattern(net, block)
        maps = region_maps(net, pat)
        pres = np.concatenate(layer_preactivations(net, block), axis=-1)
        covered = pres[:, :pat.shape[1]]   # identity nets have no pattern
        assert maps.P.shape == (6, pat.shape[1], net.k)
        assert maps.J.shape == (6, net.n, net.k)
        pre = np.einsum("bij,bj->bi", maps.P, block) + maps.p
        out = np.einsum("bij,bj->bi", maps.J, block) + maps.g
        assert np.allclose(pre, covered, rtol=0, atol=self.TOL * np.abs(pres).max())
        assert np.allclose(out, x, rtol=0, atol=self.TOL * np.abs(pres).max())
        assert maps.J.tobytes() == jacobian(net, block).tobytes()

    @pytest.mark.parametrize("kind, h", KINDS)
    def test_codes_sharing_a_pattern_get_the_same_bytes(self, rng, kind, h):
        net = random_gaussian_net([4, 12, 10, 16], Activation(kind, h), 9)
        hits = 0
        while hits < 5:
            z = rng.standard_normal(4)
            if not kink_free(net, z):
                continue
            hits += 1
            other = z + 1e-6 * rng.standard_normal(4)
            pats = forward_pattern(net, np.stack([z, other]))[1]
            assert np.array_equal(pats[0], pats[1])
            one, two = region_maps(net, pats[:1]), region_maps(net, pats[1])
            for a, b in zip(one, two):
                assert a[0].tobytes() == b.tobytes()

    def test_pattern_width_checked(self):
        net = random_gaussian_net([3, 5, 7], Activation("relu"), 0)
        for bad in (np.ones(11, dtype=bool), np.ones((2, 13), dtype=bool),
                    np.ones((1, 2, 12), dtype=bool)):
            with pytest.raises(ValueError, match="pattern has shape"):
                region_maps(net, bad)


class TestComposeLinear:
    def test_single_layer(self):
        net = make_linear_net([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(compose_linear(net), [[1.0, 2.0], [3.0, 4.0]])

    def test_two_layer_scaling(self):
        net = make_linear_net([np.eye(3), 2.0 * np.eye(3)])
        np.testing.assert_array_equal(compose_linear(net), 2.0 * np.eye(3))

    def test_matches_direct_multiplication(self, rng):
        net = random_gaussian_net([3, 5, 7, 9], Activation("identity"), 11)
        net = zero_bias(net)
        w = compose_linear(net)
        for _ in range(50):
            z = rng.standard_normal(3)
            assert np.linalg.norm(forward(net, z) - w @ z) < 1e-10

    def test_bias_offset_identity(self, rng):
        net = random_gaussian_net([3, 5, 6], Activation("identity"), 13)
        w = compose_linear(net)
        offset = forward(net, np.zeros(3))
        for _ in range(20):
            z = rng.standard_normal(3)
            np.testing.assert_allclose(forward(net, z), w @ z + offset,
                                       rtol=1e-10, atol=1e-10)

    def test_rejects_nonlinear_activation(self):
        net = random_gaussian_net([2, 4], Activation("relu"), 0)
        with pytest.raises(ValueError):
            compose_linear(net)


class TestProperties:
    def test_positive_homogeneity_relu_zero_bias(self, rng):
        net = zero_bias(random_gaussian_net([3, 8, 12], Activation("relu"), 21))
        for _ in range(20):
            z = rng.standard_normal(3)
            a = float(rng.uniform(0.1, 5.0))
            np.testing.assert_allclose(forward(net, a * z), a * forward(net, z),
                                       rtol=1e-12, atol=1e-12)

    def test_leaky_layerwise_injectivity(self, rng):
        net = random_gaussian_net([4, 8, 16], Activation("leaky_relu", 0.2), 31)
        for _ in range(50):
            z1 = rng.standard_normal(4)
            z2 = rng.standard_normal(4)
            if np.array_equal(z1, z2):
                continue
            diff = np.max(np.abs(forward(net, z1) - forward(net, z2)))
            assert diff > 1e-12

    def test_piecewise_linearity_on_kink_free_segment(self, rng):
        net = random_gaussian_net([3, 10, 14], Activation("leaky_relu", 0.4), 41)
        checked = 0
        while checked < 20:
            z = rng.standard_normal(3)
            c = rng.standard_normal(3)
            ts = np.array([0.0, 1e-4, 2e-4])
            # all three points must share the activation pattern
            pres = [np.concatenate(layer_preactivations(net, z + t * c)) for t in ts]
            if not all(np.array_equal(np.sign(pres[0]) >= 0, np.sign(p) >= 0)
                       for p in pres[1:]):
                continue
            checked += 1
            f0, f1, f2 = (forward(net, z + t * c) for t in ts)
            np.testing.assert_allclose(f1, (f0 + f2) / 2.0, rtol=0, atol=1e-9)


class TestSerialization:
    def test_round_trip_value_exact(self):
        net = random_gaussian_net([3, 5, 4], Activation("leaky_relu", 0.25), 77)
        blob = json.dumps(net_to_dict(net))
        back = net_from_dict(json.loads(blob))
        assert back.dims == net.dims
        assert back.activation == net.activation
        assert back.seed == net.seed
        for wa, wb in zip(net.weights, back.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(net.biases, back.biases):
            assert ba.tobytes() == bb.tobytes()

    @pytest.mark.parametrize("activation", [Activation("identity"), Activation("relu"),
                                            Activation("leaky_relu", 0.2)])
    def test_pickle_round_trip_is_exact_and_read_only(self, activation):
        net = random_gaussian_net([3, 5, 4], activation, 7)
        back = pickle.loads(pickle.dumps(net))
        assert back.dims == net.dims and back.activation == net.activation
        assert back.seed == net.seed
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert a.tobytes() == b.tobytes()
            assert not b.flags.writeable
