"""Scale functions: evaluation, inversion, class audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import scale


class TestEval:
    def test_identity(self):
        assert scale.eval_scale(scale.identity(), 5.0) == 5.0

    def test_iterated_log_at_e(self):
        assert abs(scale.eval_scale(scale.iterated_log(1), math.e) - 1.0) < 1e-15

    def test_log_plus_frozen_below_x0(self):
        s = scale.log_plus()  # x0 = e, value 1 there
        assert scale.eval_scale(s, 0.5) == 1.0
        assert scale.eval_scale(s, -100.0) == 1.0

    def test_total_on_reals(self):
        for s in [scale.identity(), scale.log_plus(), scale.iterated_log(2),
                  scale.power(0.5), scale.linear(2.0, 1.0)]:
            v = scale.eval_scale(s, np.array([-1e9, 0.0, 1e9]))
            assert np.all(np.isfinite(v)) and np.all(v >= 0)

    @pytest.mark.parametrize("maker", [
        scale.identity, scale.log_plus, lambda: scale.iterated_log(2),
        lambda: scale.power(0.7), lambda: scale.linear(3.0),
        lambda: scale.user_table([0, 1, 2, 5], [0, 1, 1.5, 9]),
        lambda: scale.compose_with_log(scale.log_plus()),
    ])
    def test_nondecreasing_on_grid(self, maker):
        s = maker()
        x = np.geomspace(max(s.x0, 0.1) + 0.5, 1e6, 200)
        v = scale.eval_scale(s, x)
        assert np.all(np.diff(v) >= -1e-12)


class TestInverse:
    def test_identity(self):
        assert scale.inverse_scale(scale.identity(), 7.0) == 7.0

    def test_iterated_log_closed_form(self):
        got = scale.inverse_scale(scale.iterated_log(1), 2.0)
        assert abs(got - math.e ** 2) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scale.inverse_scale(scale.log_plus(), 0.5)  # min value is 1

    def test_user_table_defining_property(self):
        # the second table has a flat segment; its inputs are each knot
        # value and values past the last knot
        for ys, inputs in (([0.5, 1.0, 3.0, 4.0], [0.6, 1.7, 3.2, 7.5]),
                           ([0.5, 1.0, 1.0, 4.0], [0.75, 1.0, 2.5, 4.0, 5.0,
                                                   1e6])):
            s = scale.user_table([1, 2, 4, 9], ys)
            for y in inputs:
                x = scale.inverse_scale(s, y)
                assert scale.eval_scale(s, x) >= y - 1e-9
                assert scale.eval_scale(s, x - 1e-6) < y, (ys, y, x)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=200)
    def test_round_trip_continuous_kinds(self, y):
        for s in [scale.identity(), scale.linear(2.0, 0.5),
                  scale.power(0.5), scale.log_plus()]:
            y_eff = max(y, scale.eval_scale(s, s.x0))
            x = scale.inverse_scale(s, y_eff)
            assert abs(scale.eval_scale(s, x) - y_eff) <= 1e-9 * max(1.0, y_eff)


class TestCompose:
    def test_compose_with_log_examples(self):
        t = scale.compose_with_log(scale.identity())
        assert abs(scale.eval_scale(t, math.e ** 3) - 3.0) < 1e-12
        t2 = scale.compose_with_log(scale.iterated_log(1))
        x = 1e8
        assert abs(scale.eval_scale(t2, x) - math.log(math.log(x))) < 1e-12


class TestAudits:
    def test_gamma_identity_subadditive_exactly(self):
        rep = scale.audit_class(scale.identity(), "L3",
                                [(1.0, 2.0), (5.0, 7.0), (0.1, 9.0)])
        assert rep.verdict == "consistent" and rep.worst_violation == 0.0

    def test_squaring_is_superadditive(self):
        sq = scale.user_table([0, 1, 2, 4], [0, 1, 4, 16])  # x^2 samples
        rep = scale.audit_class(sq, "L3", [(1.0, 1.0)])
        assert rep.verdict == "falsified"
        assert rep.worst_violation == pytest.approx(2.0)

    def test_log_plus_l1_with_c1(self):
        rng = np.random.default_rng(3)
        pairs = list(zip(10 ** rng.uniform(1, 6, 1000),
                         10 ** rng.uniform(1, 6, 1000)))
        rep = scale.audit_class(scale.log_plus(), "L1", pairs, c=1.0)
        assert rep.verdict == "consistent"

    def test_concave_power_subadditive(self):
        rng = np.random.default_rng(4)
        pairs = list(zip(rng.uniform(0.1, 1e5, 500),
                         rng.uniform(0.1, 1e5, 500)))
        rep = scale.audit_class(scale.power(0.5), "L3", pairs)
        assert rep.verdict == "consistent"

    def test_l2_shift_ratio(self):
        x = np.geomspace(10, 1e9, 64)
        rep = scale.audit_class(scale.log_plus(), "L2",
                                list(zip(x, np.full(64, 3.0))))
        assert rep.verdict == "consistent"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scale.audit_class(scale.identity(), "L3", [])

    def test_cond_ii_needs_triple(self):
        with pytest.raises(ValueError):
            scale.audit_class(scale.identity(), "cond_ii", [(1, 2)])

    def test_condition_ii_for_hyper_order_triple(self):
        reps = scale.audit_condition_ii(scale.log_plus(), scale.identity(),
                                        scale.identity(),
                                        np.geomspace(1e2, 1e80, 64), p=2)
        assert all(r.verdict == "consistent" for r in reps)

    def test_report_carries_caveat(self):
        rep = scale.audit_class(scale.identity(), "L3", [(1.0, 2.0)])
        assert "not a proof" in rep.note


class TestTriple:
    def test_construction_audits_stored(self):
        t = scale.ScaleTriple(scale.log_plus(), scale.identity(),
                              scale.identity())
        assert len(t.audits) == 3
        assert all(not a.falsified for a in t.audits)

    def test_wrapped_replaces_alpha(self):
        t = scale.ScaleTriple(scale.identity(), scale.identity(),
                              scale.identity())
        w = t.wrapped()
        assert abs(scale.eval_scale(w.alpha, math.e ** 4) - 4.0) < 1e-12
