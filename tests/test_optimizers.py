import numpy as np
import pytest

from scale_lab import (DimensionError, DomainError, MomentState, OptimizerConfig,
                       adam_step, constant_gradient_closed_form,
                       gd_step, signsgd_step, zero_state)


def raw_config(b1, b2, **kw):
    kw.setdefault("epsilon", 0.0)
    kw.setdefault("bias_correction", False)
    return OptimizerConfig(beta1=b1, beta2=b2, **kw)


class TestAdamStep:
    def test_first_step_from_zero_state(self):
        state, upd = adam_step(zero_state(1), np.array([1.0]), raw_config(0.5, 0.5))
        assert state.m[0] == pytest.approx(0.5, abs=0)
        assert state.v[0] == pytest.approx(0.5, abs=0)
        # 0.5 / sqrt(0.5)
        assert upd.r[0] == pytest.approx(0.7071067811865476, abs=1e-15)
        assert state.k == 1

    @pytest.mark.parametrize("c", [1.0, 3.0, 0.25])
    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.5, 0.5), (0.99, 0.9)])
    def test_bias_correction_first_step_is_unit(self, c, betas):
        # m_hat = g and v_hat = g^2 at the first step, so R = sign(g)
        cfg = OptimizerConfig(beta1=betas[0], beta2=betas[1], epsilon=0.0,
                              bias_correction=True)
        _, upd = adam_step(zero_state(1), np.array([c]), cfg)
        assert upd.r[0] == pytest.approx(1.0, abs=1e-14)

    def test_frozen_state_hand_values(self):
        state = MomentState(m=np.array([1.0]), v=np.array([1.0]), theta=np.zeros(1))
        cfg = raw_config(0.9, 0.9)
        new, upd = adam_step(state, np.array([1.0]), cfg)
        assert new.m[0] == pytest.approx(1.0, abs=1e-15)
        assert new.v[0] == pytest.approx(1.0, abs=1e-15)
        assert upd.r[0] == pytest.approx(1.0, abs=1e-15)
        new, upd = adam_step(state, np.array([2.0]), cfg)
        assert new.m[0] == pytest.approx(1.1, abs=1e-15)
        assert new.v[0] == pytest.approx(1.3, abs=1e-15)
        # 1.1 / sqrt(1.3), exact rational arithmetic
        assert upd.r[0] == pytest.approx(0.9647638212377321, abs=1e-15)

    def test_theta_moves_against_update(self):
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.1)
        state, upd = adam_step(zero_state(2, theta=np.array([1.0, -1.0])),
                               np.array([1.0, -2.0]), cfg)
        assert np.allclose(state.theta, np.array([1.0, -1.0]) - 0.1 * upd.r)

    def test_decoupled_weight_decay_shrinks_after_step(self):
        cfg = OptimizerConfig(beta1=0.9, beta2=0.999, eta=0.1, weight_decay=0.5)
        theta0 = np.array([1.0])
        state, upd = adam_step(zero_state(1, theta=theta0), np.array([1.0]), cfg)
        expected = (theta0 - 0.1 * upd.r) * (1.0 - 0.1 * 0.5)
        assert np.allclose(state.theta, expected)

    def test_zero_weight_decay_is_bit_identical_to_adam(self):
        g = np.array([0.3, -0.7, 1.1])
        cfg_a = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.05, weight_decay=0.0)
        cfg_b = OptimizerConfig(beta1=0.9, beta2=0.99, eta=0.05)
        sa, sb = zero_state(3, theta=np.ones(3)), zero_state(3, theta=np.ones(3))
        for _ in range(20):
            sa, ra = adam_step(sa, g, cfg_a)
            sb, rb = adam_step(sb, g, cfg_b)
        assert np.array_equal(sa.theta, sb.theta)
        assert np.array_equal(ra.r, rb.r)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            adam_step(zero_state(2), np.array([1.0]), OptimizerConfig())

    def test_zero_v_with_zero_epsilon(self):
        with pytest.raises(DomainError):
            adam_step(zero_state(1), np.array([0.0]), raw_config(0.9, 0.9))

    def test_inputs_not_mutated(self):
        state = MomentState(m=np.array([1.0]), v=np.array([2.0]), theta=np.array([3.0]))
        adam_step(state, np.array([1.0]), OptimizerConfig())
        assert state.m[0] == 1.0 and state.v[0] == 2.0 and state.theta[0] == 3.0


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_beta_range(self, bad):
        with pytest.raises(DomainError):
            OptimizerConfig(beta1=bad)
        with pytest.raises(DomainError):
            OptimizerConfig(beta2=bad)

    def test_negative_epsilon(self):
        with pytest.raises(DomainError):
            OptimizerConfig(epsilon=-1e-8)


class TestSignAndGd:
    def test_sign_values(self):
        assert np.array_equal(signsgd_step(np.array([3.7, -0.01])).r, [1.0, -1.0])
        assert signsgd_step(np.array([0.0])).r[0] == 0.0

    @pytest.mark.parametrize("lam", [0.5, 2.0, 1000.0])
    def test_sign_exact_scale_invariance(self, lam):
        g = np.array([3.7, -0.01])
        assert np.array_equal(signsgd_step(g).r, signsgd_step(lam * g).r)

    def test_gd_identity_and_linearity(self):
        g = np.array([2.0, -1.0])
        assert np.array_equal(gd_step(g).r, g)
        assert np.array_equal(gd_step(np.zeros(2)).r, np.zeros(2))
        assert np.array_equal(gd_step(2.0 * g).r, 2.0 * g)


class TestClosedForm:
    def test_single_step(self):
        # sqrt(0.1)
        assert constant_gradient_closed_form(5.0, 1, 0.9, 0.9).r[0] == pytest.approx(
            0.31622776601683794, abs=1e-15)
        assert constant_gradient_closed_form(-5.0, 1, 0.9, 0.9).r[0] == pytest.approx(
            -0.31622776601683794, abs=1e-15)

    def test_large_k_limit(self):
        assert constant_gradient_closed_form(123.0, 10_000, 0.9, 0.999).r[0] == pytest.approx(
            1.0, abs=1e-4)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            constant_gradient_closed_form(1.0, 0, 0.9, 0.9)

    @pytest.mark.parametrize("c", [5.0, 0.01, -2.0, 1e6])
    @pytest.mark.parametrize("betas", [(0.9, 0.9), (0.9, 0.999), (0.99, 0.5)])
    def test_matches_iterated_raw_adam(self, c, betas):
        # scale independence of raw Adam from zero init, k = 1..50
        cfg = raw_config(*betas)
        state = zero_state(1)
        for k in range(1, 51):
            state, upd = adam_step(state, np.array([c]), cfg)
            oracle = constant_gradient_closed_form(c, k, *betas)
            assert upd.r[0] == pytest.approx(oracle.r[0], abs=1e-12)


class TestProperties:
    def test_coordinate_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, v, g = rng.normal(size=4), rng.uniform(0.5, 2.0, 4), rng.normal(size=4)
            perm = rng.permutation(4)
            cfg = OptimizerConfig(beta1=0.9, beta2=0.99)
            base = MomentState(m=m, v=v, theta=np.zeros(4))
            permuted = MomentState(m=m[perm], v=v[perm], theta=np.zeros(4))
            s1, r1 = adam_step(base, g, cfg)
            s2, r2 = adam_step(permuted, g[perm], cfg)
            assert np.array_equal(r1.r[perm], r2.r)
            assert np.array_equal(s1.m[perm], s2.m)

    def test_sign_of_r_matches_sign_of_new_m(self):
        rng = np.random.default_rng(11)
        cfg = OptimizerConfig(beta1=0.8, beta2=0.95, epsilon=1e-8)
        state = MomentState(m=rng.normal(size=6), v=rng.uniform(0.1, 1.0, 6),
                            theta=np.zeros(6))
        for _ in range(30):
            g = rng.normal(size=6)
            state, upd = adam_step(state, g, cfg)
            assert np.array_equal(np.sign(upd.r), np.sign(state.m))

    def test_bias_correction_is_transient_only(self):
        # raw and bias-corrected traces agree to 1e-6 from step 300 on
        rng = np.random.default_rng(3)
        stream = rng.uniform(0.5, 1.5, size=(400, 3)) * np.sign(rng.normal(size=(400, 3)))
        for b1, b2 in [(0.9, 0.9), (0.8, 0.9), (0.9, 0.5)]:
            raw = raw_config(b1, b2, epsilon=1e-12)
            bc = OptimizerConfig(beta1=b1, beta2=b2, epsilon=1e-12, bias_correction=True)
            s_raw, s_bc = zero_state(3), zero_state(3)
            for k, g in enumerate(stream):
                s_raw, r_raw = adam_step(s_raw, g, raw)
                s_bc, r_bc = adam_step(s_bc, g, bc)
                if k + 1 >= 300:
                    assert np.max(np.abs(r_raw.r - r_bc.r)) < 1e-6

    def test_adam_update_does_not_advance_state(self):
        state = MomentState(m=np.array([1.0]), v=np.array([1.0]), theta=np.zeros(1))
        _, r1 = adam_step(state, np.array([2.0]), raw_config(0.9, 0.9))
        _, r2 = adam_step(state, np.array([2.0]), raw_config(0.9, 0.9))
        assert np.array_equal(r1.r, r2.r)
        assert state.k == 0
