"""Bit-labeled constellations: QAM baselines, power moments, cluster detection.

Label convention used everywhere in this package: a constellation with
``m`` bits per symbol stores its points indexed by the unsigned integer
value of the bit label, and bit 0 of the label is the most significant
bit, i.e. label ``i`` carries bit ``k`` equal to ``(i >> (m - 1 - k)) & 1``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (ParameterError, build_section, check_field_types, check_value, float_tuple,
                     load_json)

CONSTELLATION_FORMAT_VERSION = 1
MAX_QAM_M = 10  # the largest order uniform_qam builds


@dataclass(frozen=True, eq=False)
class Constellation:
    """M = 2**m complex points indexed by their m-bit label.

    Parameters
    ----------
    m : int
        Bits per symbol, m >= 1.
    points : ndarray of complex, shape (2**m,)
        points[i] is the symbol transmitted for label i (I + jQ, in
        normalized amplitude units).
    metadata : dict
        Free-form provenance record (generator name, training SNR, seed).
    """

    m: int
    points: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        if self.m < 1:
            raise ParameterError(f"m must be an integer >= 1, got {self.m!r}")
        pts = np.asarray(self.points, dtype=np.complex128)
        if self.m > 62 or pts.shape != (2 ** self.m,):  # no array holds 2^63 points
            raise ParameterError(f"expected 2^{self.m} points, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)
        with np.errstate(over="ignore"):
            if not np.isfinite(self.average_power()):  # nor then any coordinate
                raise ParameterError("constellation has non-finite points or average power")

    @property
    def size(self) -> int:
        return 2 ** self.m

    def average_power(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))

    def bits(self) -> np.ndarray:
        """Read-only bit table (M, m); row i holds the bits of label i, MSB first."""
        return bit_table(self.m)


@dataclass(frozen=True)
class Moments:
    """Normalized power moments of a constellation.

    mu2 is the mean squared magnitude; mu4_hat and mu6_hat are the fourth
    and sixth moments normalized by mu2**2 and mu2**3 respectively, so a
    constant-modulus constellation has mu4_hat == mu6_hat == 1.
    """

    mu2: float
    mu4_hat: float
    mu6_hat: float

    def __post_init__(self):
        if not self.mu2 > 0:
            raise ParameterError(f"mu2 must be positive, got {self.mu2}")


@dataclass(frozen=True)
class MomCluster:
    """A group of labels whose points collapsed onto (nearly) one location.

    ambiguous_bit_positions are the label bit indices that vary across the
    member labels; shared_bit_positions is the complement in {0..m-1}.
    All index collections are sorted tuples.
    """

    member_labels: tuple
    centroid: complex
    ambiguous_bit_positions: tuple
    shared_bit_positions: tuple

    @property
    def size(self) -> int:
        return len(self.member_labels)


@functools.lru_cache(maxsize=32)
def bit_table(m: int) -> np.ndarray:
    """Return the (2**m, m) array of label bits, bit 0 = most significant.

    The table is built once per m and shared, so it is read-only.
    """
    labels = np.arange(2 ** m)
    shifts = np.arange(m - 1, -1, -1)
    table = ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def labels_from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of bit_table: int64 labels of 0/1 rows (..., m), bit 0 = most significant."""
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


@functools.lru_cache(maxsize=32)
def partition_weights(m: int) -> np.ndarray:
    """Return [1 - B | B] (2**m, 2m) as float64, B = bit_table(m), read-only.

    Column k selects the labels whose bit k is 0, column m + k those whose
    bit k is 1; the Gaussian bit metric sums its likelihoods with it.
    """
    bits = bit_table(m)
    weights = np.concatenate([1.0 - bits, bits], axis=1)
    weights.flags.writeable = False
    return weights


def check_labels(labels, size: int) -> np.ndarray:
    """labels as an array; ParameterError unless they are integers in [0, size)."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or (
            labels.size and not 0 <= labels.min() <= labels.max() < size):
        raise ParameterError(f"labels must be integers in [0, {size})")
    return labels


def _gray_to_binary(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < 16:
        b ^= b >> shift
        shift <<= 1
    return b


def uniform_qam(m: int) -> Constellation:
    """Gray-labeled uniform QAM with unit average power.

    The first ceil(m/2) label bits select the I level and the remaining
    bits the Q level, each axis using a binary-reflected Gray code
    (level index descends from the largest positive amplitude).

    Even m yields square QAM where every nearest-neighbor pair differs in
    exactly one bit. Odd m >= 5 yields cross-QAM: the enclosing Gray-labeled
    rectangle is built first and the points of its outermost columns are
    remapped to the nearest vacant slot inside the cross silhouette
    (labels travel with their points, giving a quasi-Gray labeling).
    m == 3 keeps the 4x2 rectangle, which is already fully Gray; no
    symmetric square-minus-corners decomposition of 8 points exists.

    Parameters
    ----------
    m : int
        Bits per symbol, 1 <= m <= 10.

    Returns
    -------
    Constellation
    """
    check_value("m", "int", m)
    if not 1 <= m <= MAX_QAM_M:
        raise ParameterError(f"m must be an integer in [1, {MAX_QAM_M}], got {m!r}")
    n_i = (m + 1) // 2
    n_q = m - n_i
    w, h = 2 ** n_i, 2 ** n_q

    labels = np.arange(2 ** m)
    g_i = labels >> n_q
    g_q = labels & (h - 1)
    # amplitude = (levels - 1) - 2 * level_index, level order follows the Gray sequence
    amp_i = (w - 1) - 2 * _gray_to_binary(g_i)
    amp_q = (h - 1) - 2 * _gray_to_binary(g_q) if n_q > 0 else np.zeros_like(labels)
    points = amp_i.astype(np.float64) + 1j * amp_q.astype(np.float64)

    if m % 2 == 1 and m >= 5:
        points = _fold_rectangle_into_cross(points, w)

    c = Constellation(int(m), points, metadata={"generator": "uniform_qam"})
    return normalize(c)


def _fold_rectangle_into_cross(points: np.ndarray, w: int) -> np.ndarray:
    """Remap the outermost rectangle columns into the cross silhouette.

    The cross is the odd-integer square of side s = 3w/4 minus four
    (w/8)x(w/8) corner blocks; its vacant slots (relative to the w x w/2
    rectangle) sit in the rows above and below the rectangle with
    |x| <= w/2 - 1. Each outlier point, visited in label order, moves to
    the nearest remaining vacant slot (ties broken by smallest (x, y)).
    """
    s = 3 * w // 4
    half_w = w // 2

    vacant = [
        complex(x, y_sign * y)
        for y in range(half_w + 1, s, 2)
        for y_sign in (1, -1)
        for x in range(-(half_w - 1), half_w, 2)
    ]
    out = points.copy()
    for i in np.flatnonzero(np.abs(points.real) > s - 1):
        dist = [abs(points[i] - v) for v in vacant]
        j = min(range(len(vacant)), key=lambda j: (dist[j], vacant[j].real, vacant[j].imag))
        out[i] = vacant.pop(j)
    return out


def normalize(c: Constellation) -> Constellation:
    """Scale all points by one common factor so the average power is 1."""
    power = c.average_power()
    if power <= 0.0:
        raise ParameterError("cannot normalize an all-zero constellation")
    return Constellation(c.m, c.points / np.sqrt(power), dict(c.metadata))


def moments(c: Constellation) -> Moments:
    """Power moments (mu2, mu4/mu2^2, mu6/mu2^3) of a constellation."""
    p2 = np.abs(c.points) ** 2
    mu2 = float(np.mean(p2))
    if mu2 <= 0.0:
        raise ParameterError("moments undefined for an all-zero constellation")
    mu4 = float(np.mean(p2 ** 2))
    mu6 = float(np.mean(p2 ** 3))
    return Moments(mu2=mu2, mu4_hat=mu4 / mu2 ** 2, mu6_hat=mu6 / mu2 ** 3)


def detect_mom_clusters(c: Constellation, epsilon: float = 0.01) -> list[MomCluster]:
    """Find groups of labels merged onto (virtually) the same point.

    Single-linkage clustering: labels are grouped by the transitive closure
    of the pairwise relation distance <= epsilon. Only clusters with at
    least two members are returned, sorted by size descending and then by
    smallest member label.

    Parameters
    ----------
    c : Constellation
    epsilon : float
        Merge threshold in the unit-power I/Q plane. The default (0.01) is
        about two orders of magnitude below typical minimum distances of
        unit-power 16-256 point constellations.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    near = np.abs(c.points[:, None] - c.points[None, :]) <= epsilon
    # min-label propagation: each label takes the smallest among its neighbours,
    # then that one's own, until all are the smallest index of their component
    root = np.arange(c.size)
    while True:
        step = np.where(near, root, c.size).min(axis=1)
        step = step[step]
        if np.array_equal(step, root):
            break
        root = step

    clusters = []
    for r in np.unique(root):
        members = np.flatnonzero(root == r)
        if members.size < 2:
            continue
        rows = c.bits()[members]
        ambiguous = tuple(int(k) for k in np.flatnonzero(rows.min(axis=0) != rows.max(axis=0)))
        clusters.append(
            MomCluster(
                member_labels=tuple(int(i) for i in members),
                centroid=complex(np.mean(c.points[members])),
                ambiguous_bit_positions=ambiguous,
                shared_bit_positions=tuple(
                    k for k in range(c.m) if k not in ambiguous),
            )
        )
    clusters.sort(key=lambda cl: (-cl.size, min(cl.member_labels)))
    return clusters


def constellation_to_dict(c: Constellation) -> dict:
    meta = {"generator": None, "trained_snr_db": None, "seed": None}
    meta.update(c.metadata)
    return {
        "version": CONSTELLATION_FORMAT_VERSION,
        "m": c.m,
        "points": [[float(p.real), float(p.imag)] for p in c.points],
        "metadata": meta,
    }


def constellation_from_dict(doc) -> Constellation:
    """The constellation of a document constellation_to_dict wrote;
    ParameterError unless it has version 1, an integer m, points as [I, Q]
    pairs of finite numbers, no key but these and metadata, and metadata,
    if present, is an object (its contents are free-form)."""
    return build_section("constellation document", _constellation, doc)


def _constellation(version, m, points, metadata={}) -> Constellation:  # noqa: B006, copied
    check_value("version", "int", version)
    if version != CONSTELLATION_FORMAT_VERSION:
        raise ParameterError(f"version must be {CONSTELLATION_FORMAT_VERSION}, got {version}")
    if not isinstance(points, list) or not all(isinstance(p, list) and len(p) == 2
                                               for p in points):
        raise ParameterError("points must be a list of [I, Q] pairs")
    if not isinstance(metadata, dict):
        raise ParameterError(f"metadata must be an object, got {type(metadata).__name__}")
    iq = np.array(float_tuple("points", [x for p in points for x in p]))
    return Constellation(m, iq.view(np.complex128), dict(metadata))


def save_constellation(c: Constellation, path) -> None:
    """Write a constellation as JSON. Floats round-trip exactly (repr form)."""
    with open(path, "w") as fh:
        json.dump(constellation_to_dict(c), fh, indent=2)
        fh.write("\n")


def load_constellation(path) -> Constellation:
    return constellation_from_dict(load_json(path))
