"""Rate adaptation tests: net-rate formula, dummy selection, label framing."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegain import (
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

    @pytest.mark.parametrize("call, match", [
        (lambda plan: net_rate(2, 1.5, 0.75), "^n_d must be an integer, got float$"),
        (lambda plan: net_rate(2.5, 1, 0.75), "^m must be an integer, got float$"),
        (lambda plan: extract_data_bits(np.zeros((3, 2), np.int64), plan, 2.0),
         "^m must be an integer, got float$"),
        (lambda plan: assemble_labels(np.zeros(3, np.uint8), plan, 2.0,
                                      np.random.default_rng(0)),
         "^m must be an integer, got float$"),
    ], ids=["net_rate-n_d", "net_rate-m", "extract_data_bits-m", "assemble_labels-m"])
    def test_non_integer_bit_counts_rejected(self, call, match):
        # a bit count of 2.0 equals the plan's m = 2 but is no count of bits
        plan = select_dummy_bits(_report([0.9, 0.1]), 1, 0.75)
        with pytest.raises(ParameterError, match=match):
            call(plan)


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
            pb_x = pb_y = np.round(rng.uniform(0.0, 1.0, m), 3)
            rep = _report(pb_x)
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

    def test_split_rule_equals_the_two_split_comparison(self):
        """The X-heavy split picks the plan that building both splits of an
        odd n_d and keeping the smaller per-pol gap (ties to X) picked."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            # few decimals, so that levels tie
            rep = _report(np.round(rng.uniform(0.0, 1.0, m), int(rng.integers(1, 4))))
            for n_d in range(2 * m + 1):
                assert select_dummy_bits(rep, n_d, 0.75) == _two_split_plan(rep, n_d, 0.75)


def _two_split_plan(report, n_d, fec_rate):
    """Dummy selection as it was when a report could differ per polarization."""
    m, dual = report.m, report.per_bit_dualpol
    order_x, order_y = (np.argsort(dual[lo:lo + m], kind="stable").tolist() for lo in (0, m))

    def build(count_x, count_y):
        dummy = frozenset(order_x[:count_x]) | frozenset(m + i for i in order_y[:count_y])
        data = tuple(float(sum(dual[i] for i in range(lo, lo + m) if i not in dummy))
                     for lo in (0, m))
        return RateAdaptPlan(m=m, dummy_positions=dummy, per_pol_data_gmi=data,
                             fec_rate=fec_rate)

    if n_d % 2 == 0:
        return build(n_d // 2, n_d // 2)
    heavy_x, heavy_y = build(n_d // 2 + 1, n_d // 2), build(n_d // 2, n_d // 2 + 1)

    def gap(plan):
        return abs(plan.per_pol_data_gmi[0] - plan.per_pol_data_gmi[1])

    return heavy_x if gap(heavy_x) <= gap(heavy_y) else heavy_y


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

    def test_is_the_exhaustive_maximum_over_n_d(self):
        # best_plan stops at the first feasible n_d; the search over every
        # n_d, keeping the first of the largest net rates, must agree
        rng = np.random.default_rng(29)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            fec_rate = float(rng.choice([0.5, 2 / 3, 0.75, 5 / 6, 1.0]))
            rep = _report(np.round(rng.uniform(0.0, 1.0, m), 3))
            plans = [select_dummy_bits(rep, n_d, fec_rate) for n_d in range(2 * m + 1)]
            exhaustive = max((p for p in plans if p.feasible), key=lambda p: p.net_rate)
            assert best_plan(rep, fec_rate) == exhaustive


# ------------------------------------------------------------ serialization


class TestPlanSerialization:
    def test_json_round_trip(self, tmp_path):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 3, 0.75)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        back = load_plan(path)
        assert back == plan

    @pytest.mark.parametrize("choose", [
        lambda report: best_plan(report, True),
        lambda report: select_dummy_bits(report, 2, True),
    ], ids=["best_plan", "select_dummy_bits"])
    def test_bool_fec_rate_rejected(self, choose):
        # load_plan refuses a file with "fec_rate": true, so no plan may hold one
        with pytest.raises(ParameterError, match="^fec_rate must be a number, got bool$"):
            choose(_report([0.95, 0.9, 0.4, 0.05]))

    @pytest.mark.parametrize("fec_rate", [1, np.float32(0.75)], ids=["int", "float32"])
    def test_plan_stores_fec_rate_as_float_and_round_trips(self, tmp_path, fec_rate):
        plan = select_dummy_bits(_report([0.95, 0.9, 0.4, 0.05]), 2, fec_rate)
        assert type(plan.fec_rate) is float and plan.fec_rate == fec_rate
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

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
        ({"n_d": 2, "dummy_positions": [3, 3]}, "n_d is 2 but would be written as 1"),
        ({"n_d": 3, "dummy_positions": [3, 7]}, "n_d is 3 but would be written as 2"),
        ({"n_d": 1, "dummy_positions": [3, 7]}, "n_d is 1 but would be written as 2"),
        ({"m": 0, "n_d": 0, "dummy_positions": []}, "m must be >= 1"),
        ({"m": -3, "n_d": 0, "dummy_positions": []}, "m must be >= 1"),
        ({"m": 4.7}, "m must be an integer"),
        ({"m": True}, "m must be an integer"),
        ({"dummy_positions": [3.9, 7]}, "dummy_positions must be a list of integers"),
        ({"per_pol_data_gmi": [1.0, 1.0, 5.0]}, "one value per polarization"),
        ({"fec_rate": 7.0, "net_rate": -5.0}, r"fec_rate must be in \(0, 1\]"),
        ({"n_d": 2.0}, "n_d is 2.0 but would be written as 2"),
        ({"net_rate": 4.0}, "net_rate is 4.0 but would be written as 4.5"),
        ({"data_gmi": True}, "data_gmi is True but would be written as 4.5"),
        ({"data_gmi": 4.0}, "data_gmi is 4.0 but would be written as 4.5"),
        ({"per_pol_data_gmi": [2.25, float("nan")]}, "per_pol_data_gmi must be a list of finite"),
        ({"comment": "x"}, "unknown key 'comment'"),
        ({"dummy_positions": [7, 3]}, r"dummy_positions is \[7, 3\] but would be written as \[3"),
    ], ids=[  # the ids pytest generated before they were pinned; a new case gets its own
        r"change0-dummy_positions must lie in \[0, 8\)",
        r"change1-dummy_positions must lie in \[0, 8\)", "change2-repeat a level",
        "change3-n_d is 3 but 2 dummy_positions", "change4-n_d is 1 but 2 dummy_positions",
        "change5-m must be >= 1", "change6-m must be >= 1", "change7-m must be an integer",
        "change8-m must be an integer", "change9-dummy_positions must be a list of integers",
        "change10-one value per polarization", r"change11-fec_rate must be in \(0, 1\]",
        "change12-n_d must be an integer",
        r"change13-net_rate is 4.0 but 4.5 is \(2m - n_d\) \* fec_rate",
        "change14-data_gmi must be a number",
        "change15-data_gmi is 4.0 but 4.5 is the sum of per_pol_data_gmi",
        "change16-per_pol_data_gmi must be a list of finite",
        r"change17-unknown keys \['comment'\]", "unsorted-dummy-positions"])
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
        with pytest.raises(ParameterError, match="^stream of 7 bits does not frame into "
                                                 "symbols of 5 data bits$"):
            assemble_labels(np.zeros(7, np.uint8), plan, 3,
                            np.random.default_rng(0))

    def test_all_dummy_plan_accepts_only_empty_stream(self):
        plan = self._plan(2, 4)
        out = assemble_labels(np.zeros(0, np.uint8), plan, 2,
                              np.random.default_rng(0))
        assert out.shape == (0, 2)
        with pytest.raises(ParameterError, match="^plan carries no data levels but "
                                                 "data_bits is nonempty$"):
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
        # a stream of one symbol's 4 bits, but not flat
        with pytest.raises(ParameterError, match="^data_bits must be a flat bit stream$"):
            assemble_labels(np.zeros((2, 2), np.uint8), plan, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("bit", [0.5, 256, -1, "1"], ids=["0.5", "256", "-1", "str"])
    def test_non_bit_values_rejected(self, bit):
        plan = self._plan(2, 0)
        with pytest.raises(ParameterError, match="data_bits must contain only 0 and 1"):
            assemble_labels([bit, 1, 0, 1], plan, 2, np.random.default_rng(0))

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
