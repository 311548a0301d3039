"""Ball counting, the two enumeration back-ends, and growth bounds."""

import math

import pytest

from grigorchuk import (MinimalForms, SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                        alpha_of_eta, check_subgroup_growth, gamma,
                        gamma_by_signature, gamma_table, lower_bound_log_gamma)
from grigorchuk.growth import BoundParams
from grigorchuk.words import in_H

# unit-weight ball sizes, confirmed independently by the two back-ends
UNIT_BALLS = [1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643]


@pytest.fixture(scope="module")
def unit_forms():
    return MinimalForms(dict(UNIT_WEIGHTS))


class TestGamma:
    def test_first_values(self, unit_forms):
        assert gamma(unit_forms, 0) == 1
        assert gamma(unit_forms, SCALE) == 5

    def test_unit_table(self, unit_forms):
        table = [gamma(unit_forms, n * SCALE) for n in range(11)]
        assert table == UNIT_BALLS

    def test_backends_agree(self, unit_forms):
        assert gamma_by_signature(10) == UNIT_BALLS

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_signature_depths(self, depth):
        # shallower probes merge more buckets, but equal elements must
        # still share a signature, or the count would exceed the ball;
        # the default depth 5 is test_backends_agree
        assert gamma_by_signature(10, probe_depth=depth) == UNIT_BALLS

    def test_monotone(self, unit_forms):
        table = [gamma(unit_forms, n * SCALE) for n in range(9)]
        assert all(x < y for x, y in zip(table, table[1:]))

    def test_restricted_radius_one(self, unit_forms):
        assert gamma_table(unit_forms, [SCALE], in_H) == [(SCALE, 4)]


class TestSubgroupSandwich:
    def test_unit_weights(self, unit_forms):
        radii = [n * SCALE for n in range(9)]
        checks = check_subgroup_growth(unit_forms, radii, in_H, 2, SCALE)
        assert all(c.holds for c in checks)

    def test_tuned_weights(self):
        forms = MinimalForms(dict(TUNED_WEIGHTS))
        radii = [n * SCALE for n in range(7)]
        checks = check_subgroup_growth(forms, radii, in_H, 2,
                                       TUNED_WEIGHTS["a"])
        assert all(c.holds for c in checks)


class TestAlpha:
    def test_baseline(self):
        assert alpha_of_eta(4.0) == 0.5

    def test_doubling(self):
        assert alpha_of_eta(2.0) == 1.0

    def test_target_region(self):
        assert abs(alpha_of_eta(3.83414) - 0.5157) < 1e-3

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            alpha_of_eta(1.0)
        with pytest.raises(ValueError):
            alpha_of_eta(0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_non_finite(self, eta):
        # nan used to give nan, and inf an exponent of 0
        with pytest.raises(ValueError, match="finite"):
            alpha_of_eta(eta)


class TestLowerBound:
    PARAMS = BoundParams(eta=4.0, shift=12.0, base_radius=8.0, base_count=271)

    def test_seed_radius(self):
        # at the seed radius the bound reduces to the seed count itself
        m, value = lower_bound_log_gamma(8, self.PARAMS)
        assert m == 0
        assert value == pytest.approx(math.log(271), abs=1e-12)

    def test_doubling_steps(self):
        assert lower_bound_log_gamma(50, self.PARAMS)[0] == 1
        assert lower_bound_log_gamma(200, self.PARAMS)[0] == 2
        m, value = lower_bound_log_gamma(1000, self.PARAMS)
        assert m == 3
        assert value == pytest.approx(8 * math.log(271 / 4) + math.log(4),
                                      abs=1e-9)

    def test_monotone_in_n(self):
        values = [lower_bound_log_gamma(n, self.PARAMS)[1]
                  for n in range(8, 2000, 37)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    def test_below_seed(self):
        with pytest.raises(ValueError):
            lower_bound_log_gamma(2, self.PARAMS)

    def test_seed_ball_too_small(self):
        params = BoundParams(eta=4.0, shift=12.0, base_radius=8.0,
                             base_count=3)
        with pytest.raises(ValueError) as err:
            lower_bound_log_gamma(50, params)
        assert str(err.value) == "seed ball must contain at least 4 elements"

    # a radius that stays flat, falls or is NaN never passes n, eta near 1
    # takes millions of doublings, and 2^m * log(gamma(L)/4) can pass the
    # largest float
    @pytest.mark.parametrize("n, eta, shift, radius, count", [
        (100, 1.0, 0.0, 1.0, 5),
        (100, 4.0, -50.0, 10.0, 5),
        (100, math.nan, 0.0, 1.0, 5),
        (100, 4.0, math.nan, 1.0, 5),
        (math.nan, 4.0, 12.0, 8.0, 5),
        (1e10, 1.001, 0.0, 1.0, 5),
        (math.inf, 4.0, 12.0, 8.0, 5),
        (2.0 ** 1020, 2.0, 0.0, 1.0, 10 ** 300),
    ], ids=["eta-1", "radius-falls", "eta-nan", "shift-nan", "n-nan",
            "too-many-doublings", "n-inf", "float-overflow"])
    def test_rejects_stalled_or_runaway_doubling(self, n, eta, shift, radius,
                                                  count):
        params = BoundParams(eta=eta, shift=shift, base_radius=radius,
                             base_count=count)
        with pytest.raises(ValueError, match="^no bound"):
            lower_bound_log_gamma(n, params)
