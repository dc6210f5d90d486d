import numpy as np
import pytest

from juntaleap.losses import get_loss


class TestSubderivativeConventions:
    def test_abs_sign_zero(self):
        loss = get_loss("abs")
        assert loss.deriv(2.0, 2.0) == 0.0
        assert loss.deriv(3.0, 2.0) == 1.0
        assert loss.deriv(1.0, 2.0) == -1.0

    def test_hinge_boundary_keeps_active_branch(self):
        loss = get_loss("hinge")
        # at u*y == 1 the chosen subderivative is -y, not 0
        assert loss.deriv(0.5, 2.0) == -2.0
        assert loss.deriv(0.6, 2.0) == 0.0
        assert loss.deriv(0.4, 2.0) == -2.0

    def test_hinge_zero_label(self):
        loss = get_loss("hinge")
        assert loss.deriv(5.0, 0.0) == 0.0

    def test_squared_factor(self):
        loss = get_loss("squared")
        assert loss.deriv(3.0, 1.0) == 4.0

    def test_quartic_half_matches_expansion(self):
        # d/du [1/2 (y-u)^2 + 1/4 (y-u)^4] = (u-y) + (u-y)^3
        loss = get_loss("squared_plus_quartic_half")
        u, y = 1.3, -0.4
        r = u - y
        assert loss.deriv(u, y) == pytest.approx(r + r**3, rel=1e-12)


class TestFiniteDifferences:
    @pytest.mark.parametrize(
        "name", ["squared", "exponential", "logistic", "squared_plus_quartic_half"]
    )
    def test_smooth_losses(self, name):
        loss = get_loss(name)
        rng = np.random.default_rng(0)
        u = rng.uniform(-2, 2, 50)
        y = rng.uniform(-1.5, 1.5, 50)
        h = 1e-6
        fd = (loss.value(u + h, y) - loss.value(u - h, y)) / (2 * h)
        np.testing.assert_allclose(loss.deriv(u, y), fd, rtol=1e-5, atol=1e-6)

    def test_cubic_perturbed_away_from_kink(self):
        loss = get_loss("squared_plus_cubic")
        u = np.array([0.5, -1.2, 2.0])
        y = np.array([-0.5, 0.3, 0.0])
        h = 1e-6
        fd = (loss.value(u + h, y) - loss.value(u - h, y)) / (2 * h)
        np.testing.assert_allclose(loss.deriv(u, y), fd, rtol=1e-5)


class TestCustomPolynomial:
    def test_diff_variant(self):
        # (u-y)^2 = [0, 0, 1]
        loss = get_loss("custom_polynomial", coeffs=[0.0, 0.0, 1.0], var="diff")
        assert loss.value(3.0, 1.0) == 4.0
        assert loss.deriv(3.0, 1.0) == 4.0

    def test_prod_variant(self):
        # exp-like truncation: 1 - uy + (uy)^2/2
        loss = get_loss("custom_polynomial", coeffs=[1.0, -1.0, 0.5], var="prod")
        u, y = 0.7, -1.1
        assert loss.value(u, y) == pytest.approx(1 - u * y + (u * y) ** 2 / 2)
        assert loss.deriv(u, y) == pytest.approx(-y + u * y * y)

    def test_rejects_bad_var(self):
        with pytest.raises(ValueError):
            get_loss("custom_polynomial", coeffs=[1.0], var="nope")

    def test_takes_no_convex_flag(self):
        with pytest.raises(TypeError):
            get_loss("custom_polynomial", coeffs=[0.0, 0.0, 1.0], convex=True)


class TestBreakpoints:
    def test_abs_breaks_at_labels(self):
        loss = get_loss("abs")
        np.testing.assert_array_equal(loss.breakpoints_for([-1.0, 2.0]), [-1.0, 2.0])

    def test_hinge_breaks_at_reciprocals(self):
        loss = get_loss("hinge")
        np.testing.assert_allclose(sorted(loss.breakpoints_for([-2.0, 0.0, 0.5])), [-0.5, 2.0])

    def test_analytic_losses_have_none(self):
        for name in ["squared", "exponential", "logistic"]:
            assert get_loss(name).breakpoints_for([1.0, -1.0]).size == 0

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            get_loss("l0")
