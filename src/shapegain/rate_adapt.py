"""Dummy-bit planning: net rate, weakest-level selection, label framing.

A plan marks n_d of the 2m dual-polarization bit levels as dummies
(levels 0..m-1 ride polarization X, m..2m-1 ride Y). Net rate is
(2m - n_d) * fec_rate bits per dual-pol symbol; the data GMI is whatever
per-bit GMI remains on the non-dummy levels. Dummy levels are filled with
uniform random bits at framing time so the transmitted symbol statistics
stay those the channel model and demapper assume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .constellation import bit_table, check_labels, labels_from_bits
from .demapper import GmiReport
from .errors import (ParameterError, build_section, check_field_types, check_value, check_written,
                     float_tuple, int_tuple, load_json)


def net_rate(m: int, n_d: int, fec_rate: float) -> float:
    """Information bits per dual-pol symbol: (2m - n_d) * fec_rate."""
    check_value("m", "int", m)
    check_value("n_d", "int", n_d)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not 0 <= n_d <= 2 * m:
        raise ParameterError(f"n_d must lie in [0, {2 * m}], got {n_d}")
    check_value("fec_rate", "float", fec_rate)
    if not 0.0 < fec_rate <= 1.0:
        raise ParameterError(f"fec_rate must be in (0, 1], got {fec_rate}")
    return (2 * m - n_d) * float(fec_rate)


@dataclass(frozen=True)
class RateAdaptPlan:
    """Outcome of dummy-level selection for one constellation/SNR point;
    n_d, net_rate and data_gmi are derived from the fields."""

    m: int
    dummy_positions: frozenset
    per_pol_data_gmi: tuple
    fec_rate: float

    @property
    def n_d(self) -> int:
        return len(self.dummy_positions)

    @property
    def net_rate(self) -> float:
        return net_rate(self.m, self.n_d, self.fec_rate)

    @property
    def data_gmi(self) -> float:
        return self.per_pol_data_gmi[0] + self.per_pol_data_gmi[1]

    @property
    def feasible(self) -> bool:
        return self.data_gmi >= self.net_rate

    def dummy_mask(self) -> str:
        """2m-character '0'/'1' string, '1' at dummy levels."""
        return "".join("1" if i in self.dummy_positions else "0"
                       for i in range(2 * self.m))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n_d": self.n_d,
            "dummy_positions": sorted(self.dummy_positions),
            "net_rate": self.net_rate,
            "data_gmi": self.data_gmi,
            "per_pol_data_gmi": list(self.per_pol_data_gmi),
            "fec_rate": self.fec_rate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc) -> "RateAdaptPlan":
        """The plan of a document to_dict wrote; ParameterError unless its
        keys are to_dict's, its fields are well typed and in range, and it is
        what to_dict writes for this plan (dummy_positions distinct and sorted,
        n_d, net_rate and data_gmi derived from the fields)."""
        def build(m, n_d, dummy_positions, net_rate, data_gmi, per_pol_data_gmi, fec_rate):
            positions = int_tuple("dummy_positions", dummy_positions)
            plan = cls(m, frozenset(positions), float_tuple("per_pol_data_gmi", per_pol_data_gmi),
                       fec_rate)
            check_field_types(plan)
            if not all(0 <= i < 2 * plan.m for i in positions):
                raise ParameterError(
                    f"dummy_positions must lie in [0, {2 * plan.m}), got {list(positions)}")
            if len(plan.per_pol_data_gmi) != 2:
                raise ParameterError("per_pol_data_gmi must hold one value per polarization")
            check_written(doc, plan.to_dict())  # net_rate checks m and fec_rate
            return plan
        return build_section("rate-adaptation plan", build, doc)


def save_plan(plan: RateAdaptPlan, path) -> None:
    with open(path, "w") as fh:
        fh.write(plan.to_json() + "\n")


def load_plan(path) -> RateAdaptPlan:
    return RateAdaptPlan.from_dict(load_json(path))


def select_dummy_bits(report: GmiReport, n_d: int,
                      fec_rate: float) -> RateAdaptPlan:
    """Mark the n_d weakest bit levels as dummies, balanced across pols.

    Both polarizations carry the report's per_bit values, so X takes the
    n_d - n_d // 2 levels with the smallest per-bit GMI and Y the n_d // 2
    smallest, ties to the lowest index: an odd n_d puts its extra dummy on X.
    """
    m = report.m
    net_rate(m, n_d, fec_rate)  # rejects a bad n_d or fec_rate
    weakest = [int(i) for i in np.argsort(report.per_bit, kind="stable")]
    dummy = frozenset(weakest[:n_d - n_d // 2]) | frozenset(m + i for i in weakest[:n_d // 2])
    # summed over the kept levels in index order, so the all-dummy plan's data GMI is 0.0 exactly
    per_pol = tuple(float(sum(report.per_bit[i] for i in range(m) if pol + i not in dummy))
                    for pol in (0, m))
    return RateAdaptPlan(m=m, dummy_positions=dummy, per_pol_data_gmi=per_pol,
                         fec_rate=float(fec_rate))


def best_plan(report: GmiReport, fec_rate: float) -> RateAdaptPlan:
    """Feasible plan with the largest net rate.

    Feasibility means data_gmi >= net_rate. The net rate
    (2m - n_d) * fec_rate falls strictly with n_d, so the first feasible
    plan in n_d order is the one; feasibility need not be monotone in n_d,
    so the plans are tried in that order rather than bisected. The
    all-dummy plan, n_d = 2m, is always feasible: data_gmi 0 >= net rate 0.
    """
    plans = (select_dummy_bits(report, n_d, fec_rate) for n_d in range(2 * report.m + 1))
    return next(plan for plan in plans if plan.feasible)


def assemble_labels(data_bits, plan: RateAdaptPlan, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Frame a data bit stream into dual-pol label pairs, shape (n, 2).

    Each symbol pair consumes 2m - n_d data bits, placed at the non-dummy
    levels in index order; dummy levels get fresh uniform bits from rng.
    The stream length must divide evenly into symbols.
    """
    check_value("m", "int", m)
    if m != plan.m:
        raise ParameterError(f"plan is for m = {plan.m}, got m = {m}")
    data_bits = np.asarray(data_bits)
    if data_bits.ndim != 1:
        raise ParameterError("data_bits must be a flat bit stream")
    if data_bits.dtype.kind not in "biuf" or not np.all((data_bits == 0) | (data_bits == 1)):
        raise ParameterError("data_bits must contain only 0 and 1")
    data_bits = data_bits.astype(np.uint8)
    per_sym = 2 * m - plan.n_d
    if per_sym == 0:
        if data_bits.size:
            raise ParameterError("plan carries no data levels but data_bits is nonempty")
        return np.zeros((0, 2), dtype=np.int64)
    if data_bits.size % per_sym != 0:
        raise ParameterError(
            f"stream of {data_bits.size} bits does not frame into symbols "
            f"of {per_sym} data bits")
    n_sym = data_bits.size // per_sym
    data_levels = [i for i in range(2 * m) if i not in plan.dummy_positions]
    frame = np.empty((n_sym, 2 * m), dtype=np.uint8)
    frame[:, data_levels] = data_bits.reshape(n_sym, per_sym)
    for level in sorted(plan.dummy_positions):
        frame[:, level] = rng.integers(0, 2, size=n_sym, dtype=np.uint8)
    return labels_from_bits(frame.reshape(n_sym, 2, m))


def extract_data_bits(labels: np.ndarray, plan: RateAdaptPlan, m: int) -> np.ndarray:
    """Inverse of assemble_labels: strip dummy levels from label pairs."""
    check_value("m", "int", m)
    if m != plan.m:
        raise ParameterError(f"plan is for m = {plan.m}, got m = {m}")
    labels = check_labels(labels, 1 << m)
    if labels.ndim != 2 or labels.shape[1] != 2:
        raise ParameterError("labels must have shape (n, 2)")
    frame = bit_table(m)[labels].reshape(len(labels), 2 * m)
    data_levels = [i for i in range(2 * m) if i not in plan.dummy_positions]
    return frame[:, data_levels].reshape(-1)
