"""Optimizer and training-mechanics tests."""

import numpy as np
import pytest

from lstmn.autodiff import NonFiniteError, Tensor, set_default_dtype
from lstmn.config import ConfigError
from lstmn.optim import (
    Adam,
    Sgd,
    dropout,
    global_grad_norm,
    renorm_gradients,
    scale_embedding_grads,
)


def params_with_grads(grads):
    out = []
    for g in grads:
        p = Tensor(np.zeros_like(np.asarray(g, dtype=np.float64)), requires_grad=True)
        p.grad = np.asarray(g, dtype=np.float64)
        out.append(p)
    return out


class TestRenorm:
    def test_norm_ten_scales_to_five(self):
        params = params_with_grads([np.array([6.0, 8.0])])   # norm 10
        pre = renorm_gradients(params, threshold=5.0)
        assert pre == pytest.approx(10.0)
        np.testing.assert_allclose(params[0].grad, [3.0, 4.0])
        assert global_grad_norm(params) == pytest.approx(5.0)

    def test_norm_three_unchanged(self):
        params = params_with_grads([np.array([3.0])])
        renorm_gradients(params, threshold=5.0)
        np.testing.assert_array_equal(params[0].grad, [3.0])

    def test_postnorm_equals_min_of_norm_and_threshold(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            grads = [rng.normal(size=s) * rng.uniform(0.1, 4.0)
                     for s in [(3,), (2, 2), (4, 1)]]
            params = params_with_grads(grads)
            pre = global_grad_norm(params)
            renorm_gradients(params, threshold=5.0)
            assert global_grad_norm(params) == pytest.approx(min(pre, 5.0), abs=1e-10)

    def test_idempotent(self):
        params = params_with_grads([np.array([30.0, 40.0])])
        renorm_gradients(params, 5.0)
        once = params[0].grad.copy()
        renorm_gradients(params, 5.0)
        np.testing.assert_array_equal(params[0].grad, once)

    def test_preserves_direction(self):
        rng = np.random.default_rng(71)
        g = rng.normal(size=7) * 10
        params = params_with_grads([g])
        renorm_gradients(params, 5.0)
        scaled = params[0].grad
        ratio = scaled / g
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)
        assert ratio[0] > 0

    def test_nonfinite_grads_rejected_before_scaling(self):
        params = params_with_grads([np.array([1.0, 2.0])])
        params[0].grad[0] = np.inf
        with pytest.raises(NonFiniteError):
            renorm_gradients(params, 5.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_grad_in_any_param_rejected(self, bad):
        params = params_with_grads([np.array([1.0, 2.0]), np.ones((2, 3)), np.array([0.5])])
        params[1].grad[1, 2] = bad
        before = [p.grad.copy() for p in params]
        with pytest.raises(NonFiniteError):
            renorm_gradients(params, 5.0)
        for p, g in zip(params, before):
            np.testing.assert_array_equal(p.grad, g)

    def test_finite_grad_whose_square_overflows_is_not_rejected(self):
        params = params_with_grads([np.array([1e200, 1.0]), np.array([[2.0]])])
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert global_grad_norm(params) == np.inf
            renorm_gradients(params, 5.0)
        np.testing.assert_array_equal(params[0].grad, [0.0, 0.0])


class TestSgd:
    def test_basic_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        Sgd([p], lr=0.65).step()
        np.testing.assert_allclose(p.data, [-0.3])

    def test_step_rounds_like_scaled_subtraction(self):
        rng = np.random.default_rng(3)
        data, grad = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        p = Tensor(data.copy(), requires_grad=True)
        p.grad = grad.copy()
        Sgd([p], lr=0.37).step()
        assert p.data.tobytes() == (data - 0.37 * grad).tobytes()

    def test_decay_on_no_improvement(self):
        opt = Sgd([], lr=0.65, decay=0.85)
        assert opt.end_epoch(100.0) is False     # first epoch sets the bar
        assert opt.end_epoch(100.0) is True      # flat -> decay
        assert opt.lr == pytest.approx(0.5525)
        assert opt.end_epoch(100.0) is True
        assert opt.lr == pytest.approx(0.65 * 0.85 * 0.85)

    def test_improvement_above_threshold_keeps_lr(self):
        opt = Sgd([], lr=0.65, improvement_threshold=1e-3)
        opt.end_epoch(100.0)
        assert opt.end_epoch(99.0) is False      # 1% better
        assert opt.lr == 0.65

    def test_sub_threshold_improvement_still_decays(self):
        opt = Sgd([], lr=0.65, improvement_threshold=1e-3)
        opt.end_epoch(100.0)
        assert opt.end_epoch(99.95) is True      # 0.05% < 0.1%
        assert opt.lr == pytest.approx(0.5525)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([3.0])
        Adam([p], lr=1e-3).step()
        # Bias-corrected m-hat/sqrt(v-hat) = sign(g) up to eps.
        assert abs(p.data[0]) == pytest.approx(1e-3, rel=1e-6)
        assert p.data[0] < 0

    def test_zero_grads_leave_params(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_matches_direct_recurrence_oracle(self):
        rng = np.random.default_rng(72)
        grads = rng.normal(size=10)
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = Adam([p], lr=2e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        # Independent scalar recurrence, written straight from the update.
        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - 2e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert p.data[0] == pytest.approx(theta, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_step_rounds_like_the_direct_expression(self, dtype):
        # The moments and the step are built in place; every value must
        # equal the out-of-place update bit for bit.
        rng = np.random.default_rng(73)
        shapes = [(4, 3), (5,), (2, 2, 3)]
        set_default_dtype(dtype)
        try:
            # Weights at the step's own scale, so a step that rounds
            # differently also moves the weights differently.
            params = [Tensor(rng.normal(size=s) * 1e-3, requires_grad=True) for s in shapes]
        finally:
            set_default_dtype(np.float64)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        theta = [p.data.copy() for p in params]
        m = [np.zeros_like(t) for t in theta]
        v = [np.zeros_like(t) for t in theta]
        for t in range(1, 7):
            grads = [rng.normal(size=s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                theta[i] = theta[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert params[i].data.dtype == dtype
                assert params[i].data.tobytes() == theta[i].tobytes(), (t, i)
                assert opt.m[i].tobytes() == m[i].tobytes()
                assert opt.v[i].tobytes() == v[i].tobytes()
            np.testing.assert_array_equal(params[0].grad, grads[0])   # grads untouched


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_mode_identity_any_rate(self):
        x = Tensor(np.ones((2, 2)))
        assert dropout(x, 0.9, training=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones(2)), 1.0, training=True,
                    rng=np.random.default_rng(0))

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(73)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, rel=0.01)


class TestEmbeddingGradPolicies:
    def test_scale_first_epoch(self):
        grad = np.ones((4, 2))
        pretrained = np.array([True, True, False, True])
        scale_embedding_grads(grad, epoch=1, policy="scale-first-epoch",
                              pretrained_mask=pretrained, scale=0.35)
        np.testing.assert_allclose(grad[0], 0.35)
        np.testing.assert_allclose(grad[2], 1.0)   # OOV row untouched

    def test_second_epoch_unchanged(self):
        grad = np.ones((2, 2))
        scale_embedding_grads(grad, epoch=2, policy="scale-first-epoch",
                              pretrained_mask=np.array([True, True]))
        np.testing.assert_array_equal(grad, np.ones((2, 2)))

    def test_freeze_pretrained_first_epoch(self):
        grad = np.ones((3, 2))
        pretrained = np.array([True, False, True])
        scale_embedding_grads(grad, epoch=1, policy="freeze-pretrained-first-epoch",
                              pretrained_mask=pretrained)
        np.testing.assert_array_equal(grad[0], 0.0)
        np.testing.assert_array_equal(grad[1], 1.0)
        np.testing.assert_array_equal(grad[2], 0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="policy"):
            scale_embedding_grads(np.ones((1, 1)), 1, "warmup",
                                  np.array([True]))
