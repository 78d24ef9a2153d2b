"""Rate adaptation tests: net-rate formula, dummy selection, label framing."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegain import (
    FramingError,
    GmiReport,
    ParameterError,
    RateAdaptPlan,
    assemble_labels,
    best_plan,
    extract_data_bits,
    load_plan,
    net_rate,
    save_plan,
    select_dummy_bits,
)
from shapegain.demapper import make_report


def _report(per_bit):
    return make_report(np.asarray(per_bit, float), n_samples=10_000,
                       stderr_total=0.001)


def _asym_report(pb_x, pb_y):
    """Report with different per-polarization statistics (not produced by the
    estimators, but the plan machinery must still handle it)."""
    pb_x = np.asarray(pb_x, float)
    pb_y = np.asarray(pb_y, float)
    dual = np.concatenate([pb_x, pb_y])
    return GmiReport(per_bit=pb_x, total=float(pb_x.sum()),
                     per_bit_dualpol=dual, total_dualpol=float(dual.sum()),
                     n_samples=10_000, stderr_total=0.001)


# ---------------------------------------------------------------- net rate


class TestNetRate:
    def test_paper_operating_points_exact(self):
        assert net_rate(8, 0, 0.75) == 12.0
        assert net_rate(8, 1, 0.75) == 11.25
        assert net_rate(8, 2, 0.75) == 10.5

    def test_full_dummy_load_is_zero(self):
        assert net_rate(4, 8, 0.75) == 0.0

    def test_bounds_enforced(self):
        with pytest.raises(ParameterError):
            net_rate(4, 9, 0.75)
        with pytest.raises(ParameterError):
            net_rate(4, -1, 0.75)
        with pytest.raises(ParameterError):
            net_rate(0, 0, 0.75)
        with pytest.raises(ParameterError):
            net_rate(4, 0, 0.0)
        with pytest.raises(ParameterError):
            net_rate(4, 0, 1.5)


# ---------------------------------------------------------- dummy selection


class TestSelectDummyBits:
    def test_even_count_takes_weakest_level_in_both_pols(self):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 2, 0.75)
        assert plan.dummy_positions == frozenset({3, 7})
        assert plan.data_gmi == pytest.approx(2 * (0.95 + 0.9 + 0.4))
        assert plan.per_pol_data_gmi == (pytest.approx(2.25), pytest.approx(2.25))
        assert plan.net_rate == pytest.approx(6 * 0.75)

    def test_odd_count_symmetric_report_puts_extra_dummy_on_x(self):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 3, 0.75)
        assert plan.dummy_positions == frozenset({2, 3, 7})
        assert plan.n_d == 3

    def test_odd_count_balances_per_pol_data_gmi(self):
        # the split rule evens out the polarizations: sacrificing X's 0.8
        # level leaves 0.9 vs 1.0, while dropping Y's weakest would leave
        # a lopsided 1.7 vs 0.9
        plan = select_dummy_bits(_asym_report([0.9, 0.8], [0.9, 0.1]), 1, 0.75)
        assert plan.dummy_positions == frozenset({1})
        assert plan.per_pol_data_gmi == (pytest.approx(0.9), pytest.approx(1.0))

    def test_ties_resolve_to_lowest_index(self):
        plan = select_dummy_bits(_report([0.5, 0.5, 0.5]), 2, 0.75)
        assert plan.dummy_positions == frozenset({0, 3})

    def test_zero_dummies_keeps_everything(self):
        rep = _report([0.7, 0.6])
        plan = select_dummy_bits(rep, 0, 0.5)
        assert plan.dummy_positions == frozenset()
        assert plan.data_gmi == pytest.approx(rep.total_dualpol)

    def test_all_dummy_plan_is_exactly_feasible(self):
        plan = select_dummy_bits(_report([0.7, 0.6]), 4, 0.75)
        assert plan.data_gmi == 0.0
        assert plan.net_rate == 0.0
        assert plan.feasible

    def test_out_of_range_count_rejected(self):
        with pytest.raises(ParameterError):
            select_dummy_bits(_report([0.5, 0.5]), 5, 0.75)

    def test_matches_exhaustive_enumeration(self):
        """Per split, the chosen levels must maximize the kept GMI; for odd
        n_d the winning split must minimize the per-pol gap."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            pb_x = np.round(rng.uniform(0.0, 1.0, m), 3)
            pb_y = np.round(rng.uniform(0.0, 1.0, m), 3)
            rep = _asym_report(pb_x, pb_y)
            for n_d in range(2 * m + 1):
                plan = select_dummy_bits(rep, n_d, 0.75)

                def best_split(cx, cy):
                    dx = max(pb_x[list(keep)].sum() if keep else 0.0
                             for keep in itertools.combinations(range(m), m - cx))
                    dy = max(pb_y[list(keep)].sum() if keep else 0.0
                             for keep in itertools.combinations(range(m), m - cy))
                    return dx, dy

                if n_d % 2 == 0:
                    dx, dy = best_split(n_d // 2, n_d // 2)
                else:
                    hx = best_split(n_d // 2 + 1, n_d // 2)
                    hy = best_split(n_d // 2, n_d // 2 + 1)
                    dx, dy = hx if abs(hx[0] - hx[1]) <= abs(hy[0] - hy[1]) else hy
                assert plan.per_pol_data_gmi[0] == pytest.approx(dx, abs=1e-12)
                assert plan.per_pol_data_gmi[1] == pytest.approx(dy, abs=1e-12)


class TestBestPlan:
    def test_worked_example(self):
        # m=2, per-bit [0.9, 0.2]: n_d=2 drops both weak levels,
        # data 1.8 >= net 1.5, and no smaller n_d is feasible
        plan = best_plan(_report([0.9, 0.2]), 0.75)
        assert plan.n_d == 2
        assert plan.dummy_positions == frozenset({1, 3})
        assert plan.net_rate == pytest.approx(1.5)
        assert plan.feasible

    def test_clean_channel_needs_no_dummies(self):
        plan = best_plan(_report([1.0, 1.0, 1.0, 1.0]), 0.75)
        assert plan.n_d == 0
        assert plan.net_rate == pytest.approx(6.0)

    def test_dead_channel_falls_back_to_all_dummy(self):
        plan = best_plan(_report([0.0, 0.0]), 0.75)
        assert plan.n_d == 4
        assert plan.net_rate == 0.0
        assert plan.feasible

    def test_never_beaten_by_any_feasible_count(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            rep = _report(np.round(rng.uniform(0.0, 1.0, m), 3))
            plan = best_plan(rep, 0.75)
            assert plan.feasible
            for n_d in range(2 * m + 1):
                other = select_dummy_bits(rep, n_d, 0.75)
                if other.feasible:
                    assert plan.net_rate >= other.net_rate


# ------------------------------------------------------------ serialization


class TestPlanSerialization:
    def test_json_round_trip(self, tmp_path):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 3, 0.75)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        back = load_plan(path)
        assert back == plan

    def test_dummy_mask_string(self):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 2, 0.75)
        assert plan.dummy_mask() == "00010001"

    def test_malformed_document_rejected(self):
        with pytest.raises(ParameterError):
            RateAdaptPlan.from_dict({"m": 2})

    @pytest.mark.parametrize("key, value", [("m", "x"), ("net_rate", 10 ** 400)])
    def test_unconvertible_value_rejected(self, key, value):
        doc = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 2, 0.75).to_dict()
        with pytest.raises(ParameterError):
            RateAdaptPlan.from_dict({**doc, key: value})

    @pytest.mark.parametrize("change, match", [
        ({"n_d": 1, "dummy_positions": [99]}, r"dummy_positions must lie in \[0, 8\)"),
        ({"n_d": 1, "dummy_positions": [-1]}, r"dummy_positions must lie in \[0, 8\)"),
        ({"n_d": 2, "dummy_positions": [3, 3]}, "repeat a level"),
        ({"n_d": 3, "dummy_positions": [3, 7]}, "n_d is 3 but 2 dummy_positions"),
        ({"n_d": 1, "dummy_positions": [3, 7]}, "n_d is 1 but 2 dummy_positions"),
        ({"m": 0, "n_d": 0, "dummy_positions": []}, "m must be >= 1"),
        ({"m": -3, "n_d": 0, "dummy_positions": []}, "m must be >= 1"),
        ({"m": 4.7}, "m must be an integer"),
        ({"m": True}, "m must be an integer"),
        ({"dummy_positions": [3.9, 7]}, "dummy_positions must be a list of integers"),
        ({"per_pol_data_gmi": [1.0, 1.0, 5.0]}, "one value per polarization"),
        ({"fec_rate": 7.0, "net_rate": -5.0}, r"fec_rate must be in \(0, 1\]"),
        ({"n_d": 2.0}, "n_d must be an integer"),
        ({"net_rate": 4.0}, r"net_rate is 4.0 but 4.5 is \(2m - n_d\) \* fec_rate"),
        ({"data_gmi": True}, "data_gmi must be a number"),
        ({"data_gmi": 4.0}, "data_gmi is 4.0 but 4.5 is the sum of per_pol_data_gmi"),
        ({"per_pol_data_gmi": [2.25, float("nan")]}, "per_pol_data_gmi must be a list of finite"),
        ({"comment": "x"}, r"unknown keys \['comment'\]"),
    ])
    def test_inconsistent_plan_rejected(self, tmp_path, change, match):
        doc = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 2, 0.75).to_dict()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(ParameterError, match=match):
            load_plan(path)

    def test_derived_values_compare_as_numbers(self):
        plan = select_dummy_bits(_report([0.5, 0.5]), 0, 1.0)
        doc = {**plan.to_dict(), "net_rate": 4, "data_gmi": 2}
        assert (plan.net_rate, plan.data_gmi) == (4.0, 2.0)
        assert RateAdaptPlan.from_dict(doc) == plan

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError):
            load_plan(path)

    def test_dict_form_is_json_safe(self):
        plan = select_dummy_bits(_report([0.5, 0.4]), 1, 0.5)
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc["dummy_positions"] == sorted(plan.dummy_positions)


# ----------------------------------------------------------------- framing


class TestFraming:
    def _plan(self, m, n_d):
        per_bit = np.linspace(1.0, 0.1, m)
        return select_dummy_bits(_report(per_bit), n_d, 0.75)

    @pytest.mark.parametrize("n_d", [0, 1, 2, 3])
    def test_round_trip_identity(self, n_d):
        m = 4
        plan = self._plan(m, n_d)
        per_sym = 2 * m - n_d
        rng = np.random.default_rng(99)
        data = rng.integers(0, 2, 120 * per_sym, dtype=np.uint8)
        labels = assemble_labels(data, plan, m, rng)
        assert labels.shape == (120, 2)
        assert labels.dtype == np.int64
        assert labels.max() < (1 << m) and labels.min() >= 0
        np.testing.assert_array_equal(extract_data_bits(labels, plan, m), data)

    def test_data_bits_land_at_data_levels_in_order(self):
        plan = self._plan(2, 2)  # dummies at levels 1 and 3
        data = np.array([1, 0, 0, 1], dtype=np.uint8)
        labels = assemble_labels(data, plan, 2, np.random.default_rng(0))
        # level 0 is the X MSB, level 2 the Y MSB
        assert (labels[0, 0] >> 1) & 1 == 1 and (labels[0, 1] >> 1) & 1 == 0
        assert (labels[1, 0] >> 1) & 1 == 0 and (labels[1, 1] >> 1) & 1 == 1

    def test_dummy_levels_cover_both_values_eventually(self):
        plan = self._plan(2, 2)
        labels = assemble_labels(np.zeros(400, np.uint8), plan, 2,
                                 np.random.default_rng(1))
        dummy_bits = labels[:, 0] & 1  # level 1 = X LSB is a dummy here
        assert set(np.unique(dummy_bits)) == {0, 1}

    def test_indivisible_stream_rejected(self):
        plan = self._plan(3, 1)
        with pytest.raises(FramingError):
            assemble_labels(np.zeros(7, np.uint8), plan, 3,
                            np.random.default_rng(0))

    def test_all_dummy_plan_accepts_only_empty_stream(self):
        plan = self._plan(2, 4)
        out = assemble_labels(np.zeros(0, np.uint8), plan, 2,
                              np.random.default_rng(0))
        assert out.shape == (0, 2)
        with pytest.raises(FramingError):
            assemble_labels(np.ones(2, np.uint8), plan, 2,
                            np.random.default_rng(0))

    def test_wrong_m_rejected(self):
        plan = self._plan(3, 1)
        with pytest.raises(ParameterError):
            assemble_labels(np.zeros(5, np.uint8), plan, 4,
                            np.random.default_rng(0))
        with pytest.raises(ParameterError):
            extract_data_bits(np.zeros((2, 2), int), plan, 4)

    def test_non_binary_stream_rejected(self):
        plan = self._plan(2, 0)
        with pytest.raises(ParameterError):
            assemble_labels(np.array([0, 1, 2, 0]), plan, 2,
                            np.random.default_rng(0))

    def test_bad_label_shape_rejected(self):
        plan = self._plan(2, 0)
        with pytest.raises(ParameterError):
            extract_data_bits(np.zeros(6, int), plan, 2)

    @pytest.mark.parametrize("labels", [
        [[7, -1]], [[4, 0]], [[0, 1 << 40]], [[1.0, 2.0]], [["a", "b"]],
    ], ids=["negative", "too-large", "huge", "float", "str"])
    def test_labels_outside_the_alphabet_rejected(self, labels):
        plan = self._plan(2, 1)
        with pytest.raises(ParameterError, match=r"labels must be integers in \[0, 4\)"):
            extract_data_bits(labels, plan, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10), st.integers(0, 40),
           st.integers(0, 2 ** 31 - 1))
    def test_round_trip_property(self, m, n_d, n_sym, seed):
        n_d = min(n_d, 2 * m)
        rng = np.random.default_rng(seed)
        plan = select_dummy_bits(
            _report(np.round(rng.uniform(0, 1, m), 3)), n_d, 0.75)
        per_sym = 2 * m - n_d
        data = rng.integers(0, 2, n_sym * per_sym, dtype=np.uint8)
        labels = assemble_labels(data, plan, m, rng)
        np.testing.assert_array_equal(extract_data_bits(labels, plan, m), data)
