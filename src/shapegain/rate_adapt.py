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
from dataclasses import dataclass, fields

import numpy as np

from .constellation import check_labels
from .demapper import GmiReport
from .errors import (FramingError, ParameterError, check_field_types, check_value, float_tuple,
                     int_tuple, load_json, reading)


def _check_fec_rate(fec_rate: float) -> float:
    if not 0.0 < fec_rate <= 1.0:
        raise ParameterError(f"fec_rate must be in (0, 1], got {fec_rate}")
    return float(fec_rate)


def net_rate(m: int, n_d: int, fec_rate: float) -> float:
    """Information bits per dual-pol symbol: (2m - n_d) * fec_rate."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not 0 <= n_d <= 2 * m:
        raise ParameterError(f"n_d must lie in [0, {2 * m}], got {n_d}")
    return (2 * m - n_d) * _check_fec_rate(fec_rate)


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
        keys are to_dict's, its fields are well typed and in range, and its
        n_d, net_rate and data_gmi equal the values derived from them."""
        with reading("rate-adaptation plan", doc, [f.name for f in fields(cls)] + [*_DERIVED]):
            positions = int_tuple("dummy_positions", doc["dummy_positions"])
            plan = cls(doc["m"], frozenset(positions),
                       float_tuple("per_pol_data_gmi", doc["per_pol_data_gmi"]), doc["fec_rate"])
            check_field_types(plan)
            if not all(0 <= i < 2 * plan.m for i in positions):
                raise ParameterError(
                    f"dummy_positions must lie in [0, {2 * plan.m}), got {list(positions)}")
            if plan.n_d != len(positions):
                raise ParameterError(f"dummy_positions repeat a level: {list(positions)}")
            if len(plan.per_pol_data_gmi) != 2:
                raise ParameterError("per_pol_data_gmi must hold one value per polarization")
            for key, (kind, rule) in _DERIVED.items():  # net_rate checks m and fec_rate
                value, derived = doc[key], getattr(plan, key)
                check_value(key, kind, value)
                if value != derived:
                    raise ParameterError(f"{key} is {value!r} but {derived!r} {rule}")
        return plan


# the fields of a plan file beyond RateAdaptPlan's own: {key: (kind, how it is derived)}
_DERIVED = {"n_d": ("int", "dummy_positions are given"),
            "net_rate": ("float", "is (2m - n_d) * fec_rate"),
            "data_gmi": ("float", "is the sum of per_pol_data_gmi")}


def save_plan(plan: RateAdaptPlan, path) -> None:
    with open(path, "w") as fh:
        fh.write(plan.to_json() + "\n")


def load_plan(path) -> RateAdaptPlan:
    return RateAdaptPlan.from_dict(load_json(path))


def _weakest(per_pol: np.ndarray, count: int) -> list:
    """Indices of the `count` smallest entries, ties to the lowest index."""
    order = np.argsort(per_pol, kind="stable")
    return [int(i) for i in order[:count]]


def _build_plan(report: GmiReport, picks_x: list, picks_y: list,
                fec_rate: float) -> RateAdaptPlan:
    m = report.m
    dual = report.per_bit_dualpol
    dummy = frozenset(picks_x) | frozenset(m + i for i in picks_y)
    # summed over the kept levels directly so the all-dummy plan's data GMI is 0.0 exactly
    data_x = float(sum(dual[i] for i in range(m) if i not in dummy))
    data_y = float(sum(dual[i] for i in range(m, 2 * m) if i not in dummy))
    return RateAdaptPlan(m=m, dummy_positions=dummy, per_pol_data_gmi=(data_x, data_y),
                         fec_rate=fec_rate)


def select_dummy_bits(report: GmiReport, n_d: int,
                      fec_rate: float) -> RateAdaptPlan:
    """Mark the n_d weakest bit levels as dummies, balanced across pols.

    Even n_d puts n_d/2 dummies in each polarization (the levels with the
    smallest per-bit GMI, ties to the lowest index). Odd n_d tries the
    extra dummy on either polarization and keeps the split whose
    per-polarization data GMIs are closest; an exact tie puts it on X.
    """
    m = report.m
    if not 0 <= n_d <= 2 * m:
        raise ParameterError(f"n_d must lie in [0, {2 * m}], got {n_d}")
    _check_fec_rate(fec_rate)
    pb_x = report.per_bit_dualpol[:m]
    pb_y = report.per_bit_dualpol[m:]
    if n_d % 2 == 0:
        half = n_d // 2
        return _build_plan(report, _weakest(pb_x, half), _weakest(pb_y, half),
                           fec_rate)
    hi, lo = n_d // 2 + 1, n_d // 2
    heavy_x = _build_plan(report, _weakest(pb_x, hi), _weakest(pb_y, lo), fec_rate)
    heavy_y = _build_plan(report, _weakest(pb_x, lo), _weakest(pb_y, hi), fec_rate)
    gap_x = abs(heavy_x.per_pol_data_gmi[0] - heavy_x.per_pol_data_gmi[1])
    gap_y = abs(heavy_y.per_pol_data_gmi[0] - heavy_y.per_pol_data_gmi[1])
    return heavy_x if gap_x <= gap_y else heavy_y


def best_plan(report: GmiReport, fec_rate: float) -> RateAdaptPlan:
    """Feasible plan with the largest net rate.

    Feasibility means data_gmi >= net_rate. All n_d in [0, 2m] are tried
    (feasibility need not be monotone in n_d); if nothing qualifies the
    all-dummy plan is returned, which is feasible at net rate zero.
    """
    _check_fec_rate(fec_rate)
    best = None
    for n_d in range(2 * report.m + 1):
        plan = select_dummy_bits(report, n_d, fec_rate)
        if plan.feasible and (best is None or plan.net_rate > best.net_rate):
            best = plan
    if best is None:
        best = select_dummy_bits(report, 2 * report.m, fec_rate)
    return best


def _labels_from_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 (MSB first) to label integers."""
    m = bits.shape[1]
    weights = 1 << np.arange(m - 1, -1, -1)
    return bits @ weights


def assemble_labels(data_bits, plan: RateAdaptPlan, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Frame a data bit stream into dual-pol label pairs, shape (n, 2).

    Each symbol pair consumes 2m - n_d data bits, placed at the non-dummy
    levels in index order; dummy levels get fresh uniform bits from rng.
    The stream length must divide evenly into symbols.
    """
    if m != plan.m:
        raise ParameterError(f"plan is for m = {plan.m}, got m = {m}")
    data_bits = np.asarray(data_bits, dtype=np.uint8)
    if data_bits.ndim != 1:
        raise ParameterError("data_bits must be a flat bit stream")
    if data_bits.size and data_bits.max() > 1:
        raise ParameterError("data_bits must contain only 0 and 1")
    per_sym = 2 * m - plan.n_d
    if per_sym == 0:
        if data_bits.size:
            raise FramingError("plan carries no data levels but data_bits is nonempty")
        return np.zeros((0, 2), dtype=np.int64)
    if data_bits.size % per_sym != 0:
        raise FramingError(
            f"stream of {data_bits.size} bits does not frame into symbols "
            f"of {per_sym} data bits")
    n_sym = data_bits.size // per_sym
    data_levels = [i for i in range(2 * m) if i not in plan.dummy_positions]
    frame = np.empty((n_sym, 2 * m), dtype=np.uint8)
    frame[:, data_levels] = data_bits.reshape(n_sym, per_sym)
    for level in sorted(plan.dummy_positions):
        frame[:, level] = rng.integers(0, 2, size=n_sym, dtype=np.uint8)
    labels = np.empty((n_sym, 2), dtype=np.int64)
    labels[:, 0] = _labels_from_bits(frame[:, :m])
    labels[:, 1] = _labels_from_bits(frame[:, m:])
    return labels


def extract_data_bits(labels: np.ndarray, plan: RateAdaptPlan, m: int) -> np.ndarray:
    """Inverse of assemble_labels: strip dummy levels from label pairs."""
    if m != plan.m:
        raise ParameterError(f"plan is for m = {plan.m}, got m = {m}")
    labels = check_labels(labels, 1 << m)
    if labels.ndim != 2 or labels.shape[1] != 2:
        raise ParameterError("labels must have shape (n, 2)")
    shifts = np.arange(m - 1, -1, -1)
    bits_x = (labels[:, 0:1] >> shifts) & 1
    bits_y = (labels[:, 1:2] >> shifts) & 1
    frame = np.concatenate([bits_x, bits_y], axis=1).astype(np.uint8)
    data_levels = [i for i in range(2 * m) if i not in plan.dummy_positions]
    return frame[:, data_levels].reshape(-1)
