import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from shapegain.constellation import (
    Constellation,
    Moments,
    bit_table,
    constellation_from_dict,
    constellation_to_dict,
    detect_mom_clusters,
    labels_from_bits,
    load_constellation,
    moments,
    normalize,
    save_constellation,
    uniform_qam,
)
from shapegain.demapper import make_report
from shapegain.errors import ParameterError
from shapegain.lut import LutDocument


def make(m, points, **meta):
    return Constellation(m=m, points=np.asarray(points, dtype=complex), metadata=meta)


class TestBitTable:
    def test_m2_msb_first(self):
        assert_array_equal(bit_table(2), [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_bit0_is_msb(self):
        t = bit_table(4)
        # label 8 = 1000b: only the first (most significant) bit set
        assert_array_equal(t[8], [1, 0, 0, 0])

    @pytest.mark.parametrize("m", range(1, 11))
    def test_labels_from_bits_inverts_the_table(self, m):
        labels = labels_from_bits(bit_table(m))
        assert labels.dtype == np.int64
        assert_array_equal(labels, np.arange(1 << m))
        # any leading axes: label pairs from (n, 2, m) bit rows
        pairs = np.arange(1 << m).reshape(-1, 2)
        assert_array_equal(labels_from_bits(bit_table(m)[pairs]), pairs)

    def test_shared_table_is_read_only(self):
        t = bit_table(3)
        assert t is bit_table(3) is uniform_qam(3).bits()
        with pytest.raises(ValueError):
            t[0, 0] = 1


class TestUniformQam:
    def test_bpsk(self):
        c = uniform_qam(1)
        assert_allclose(c.points, [1.0, -1.0])

    def test_qpsk_levels_and_gray(self):
        c = uniform_qam(2)
        s = 1 / np.sqrt(2)
        assert_allclose(c.points, [s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])
        # adjacent points differ in exactly one label bit
        bits = bit_table(2)
        for i in range(4):
            for j in range(4):
                d = abs(c.points[i] - c.points[j])
                if 0 < d < 1.5:
                    assert np.sum(bits[i] != bits[j]) == 1

    def test_16qam_levels(self):
        c = uniform_qam(4)
        lv = np.array([-3, -1, 1, 3]) / np.sqrt(10)
        assert set(np.round(c.points.real, 12)) == set(np.round(lv, 12))
        assert set(np.round(c.points.imag, 12)) == set(np.round(lv, 12))
        assert abs(c.average_power() - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_even_m_gray_neighbors(self, m):
        # every nearest-neighbor pair differs in exactly one bit
        c = uniform_qam(m)
        bits = bit_table(m)
        pts = c.points
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        step = d.min() * 1.0001
        ii, jj = np.nonzero(d <= step)
        assert len(ii) > 0
        hamming = np.sum(bits[ii] != bits[jj], axis=1)
        assert np.all(hamming == 1)

    @pytest.mark.parametrize("m", list(range(1, 11)))
    def test_unit_power_and_unique(self, m):
        c = uniform_qam(m)
        assert c.size == 2 ** m
        assert abs(c.average_power() - 1.0) < 1e-9
        assert len(np.unique(np.round(c.points, 9))) == 2 ** m

    def test_m3_is_rectangle(self):
        c = uniform_qam(3)
        assert len(set(np.round(c.points.real, 12))) == 4
        assert len(set(np.round(c.points.imag, 12))) == 2

    def test_m5_is_cross(self):
        # 32-point cross: corners of the 6x6 bounding box stay empty
        c = uniform_qam(5)
        r = np.max(np.abs(c.points.real))
        assert np.max(np.abs(c.points.imag)) == pytest.approx(r, rel=1e-12)
        corner = (np.abs(c.points.real) > 0.99 * r) & (np.abs(c.points.imag) > 0.99 * r)
        assert not corner.any()

    def test_m5_mostly_gray(self):
        # corner remaps break Gray adjacency only locally: most
        # nearest-neighbor pairs still differ in a single bit
        c = uniform_qam(5)
        bits = bit_table(5)
        d = np.abs(c.points[:, None] - c.points[None, :])
        np.fill_diagonal(d, np.inf)
        step = d.min() * 1.0001
        ii, jj = np.nonzero(d <= step)
        hamming = np.sum(bits[ii] != bits[jj], axis=1)
        assert (hamming == 1).mean() > 0.7
        assert hamming.mean() < 1.5

    @pytest.mark.parametrize("m", [0, 11, -1])
    def test_m_range(self, m):
        with pytest.raises(ParameterError):
            uniform_qam(m)

    @pytest.mark.parametrize("m", [True, False, 4.0])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ParameterError, match="m must be an integer"):
            uniform_qam(m)


class TestNormalizeAndMoments:
    def test_normalize_scales(self):
        c = uniform_qam(2)
        scaled = make(2, c.points * 3.0)
        back = normalize(scaled)
        assert_allclose(back.points, c.points, atol=1e-12)

    def test_normalize_idempotent(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c1 = normalize(make(3, pts))
        c2 = normalize(c1)
        assert_allclose(c1.points, c2.points, atol=1e-12)
        assert abs(c1.average_power() - 1.0) < 1e-12

    def test_normalize_zero_rejected(self):
        with pytest.raises(ParameterError,
                           match="^cannot normalize an all-zero constellation$"):
            normalize(make(1, [0.0, 0.0]))
        with pytest.raises(ParameterError,
                           match="^moments undefined for an all-zero constellation$"):
            moments(make(1, [0.0, 0.0]))
        with pytest.raises(ParameterError, match="^mu2 must be positive, got 0.0$"):
            Moments(mu2=0.0, mu4_hat=1.0, mu6_hat=1.0)

    def test_qpsk_constant_modulus(self):
        mom = moments(uniform_qam(2))
        assert mom.mu2 == pytest.approx(1.0)
        assert mom.mu4_hat == pytest.approx(1.0)
        assert mom.mu6_hat == pytest.approx(1.0)

    def test_16qam_moments(self):
        # by direct sum over levels {1,9}/10 power pairs:
        # mu4 = mean(|x|^4) = 1.32, mu6 = mean(|x|^6) = 1.96 at unit power
        mom = moments(uniform_qam(4))
        assert mom.mu4_hat == pytest.approx(1.32, abs=1e-12)
        assert mom.mu6_hat == pytest.approx(1.96, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_moment_bounds(self, m):
        mom = moments(uniform_qam(m))
        assert mom.mu4_hat >= 1.0 - 1e-12
        assert mom.mu6_hat >= 1.0 - 1e-12


class TestMomClusters:
    def test_no_clusters_above_epsilon(self):
        assert detect_mom_clusters(uniform_qam(2), epsilon=0.1) == []

    def test_two_degenerate_pairs(self):
        c = make(2, [0.0, 0.0, 1.0, 1.0])
        out = detect_mom_clusters(c, epsilon=1e-3)
        assert [cl.member_labels for cl in out] == [(0, 1), (2, 3)]
        for cl in out:
            assert cl.ambiguous_bit_positions == (1,)
            assert cl.shared_bit_positions == (0,)

    def test_four_point_cluster_two_ambiguous(self):
        # labels 4,5,6,7 share only bit 0 of three
        base = np.array([2.0, -2.0, 2j, -2j], dtype=complex)
        pts = np.concatenate([base, 1.0 + 1e-6 * np.arange(4)])
        out = detect_mom_clusters(make(3, pts), epsilon=1e-3)
        assert len(out) == 1
        assert out[0].member_labels == (4, 5, 6, 7)
        assert out[0].ambiguous_bit_positions == (1, 2)
        assert out[0].shared_bit_positions == (0,)

    def test_single_linkage_chains(self):
        # chain 0-1-2 linked through pairwise steps of 0.9 epsilon
        pts = np.array([0.0, 0.009, 0.018, 1.0], dtype=complex)
        out = detect_mom_clusters(make(2, pts), epsilon=0.01)
        assert len(out) == 1
        assert out[0].member_labels == (0, 1, 2)

    def test_epsilon_below_min_distance_empty(self):
        c = uniform_qam(3)
        gaps = np.abs(c.points[:, None] - c.points[None, :])
        min_distance = gaps[np.triu_indices(c.size, k=1)].min()
        assert detect_mom_clusters(c, epsilon=0.99 * min_distance) == []

    def test_epsilon_above_max_distance_single_cluster(self):
        c = uniform_qam(3)
        out = detect_mom_clusters(c, epsilon=10.0)
        assert len(out) == 1
        assert out[0].member_labels == tuple(range(8))
        assert out[0].ambiguous_bit_positions == (0, 1, 2)

    def test_centroid(self):
        c = make(1, [0.5 + 0.5j, 0.5004 + 0.5j])
        out = detect_mom_clusters(c, epsilon=1e-3)
        assert out[0].centroid == pytest.approx(0.5002 + 0.5j)

    def test_epsilon_positive_required(self):
        with pytest.raises(ParameterError):
            detect_mom_clusters(uniform_qam(1), epsilon=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_connected_components(self, seed):
        # shuffled chains and blobs, against scipy's graph search as reference
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        # a random walk with steps of 0.5, 0.9 or 1.5 epsilon, labels shuffled
        step = rng.choice([0.5, 0.9, 1.5], 2 ** m) * np.exp(2j * np.pi * rng.random(2 ** m))
        pts = rng.permutation(np.cumsum(0.01 * step))
        c = make(m, pts)
        n_comp, comp = connected_components(
            csr_matrix(np.abs(pts[:, None] - pts[None, :]) <= 0.01), directed=False)
        expect = [tuple(np.flatnonzero(comp == k)) for k in range(n_comp)]
        expect = sorted((g for g in expect if len(g) > 1), key=lambda g: (-len(g), g[0]))
        got = [cl.member_labels for cl in detect_mom_clusters(c, epsilon=0.01)]
        assert got == expect
        assert any(len(g) > 2 for g in got)

    def test_package_import_leaves_scipy_out(self):
        code = "import sys, shapegain; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestConstellationType:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            make(2, [1.0, -1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            make(1, [np.inf, 1.0])

    @pytest.mark.parametrize("points", [[1e308, 1.0, -1.0, 1j], [1e155j, 1.0, -1.0, 1j],
                                        [1e154] * 4])
    def test_overflowing_power_rejected(self, points):
        # finite coordinates whose squares, or their sum, overflow
        with pytest.raises(ParameterError, match="average power"):
            make(2, points)

    def test_metadata_preserved(self):
        c = make(1, [1.0, -1.0], generator="qam")
        assert c.metadata["generator"] == "qam"

    def test_array_holding_records_compare_by_identity(self):
        # a field-wise == would compare ndarrays inside a tuple and raise
        records = [(uniform_qam(2), uniform_qam(2)),
                   (make_report(np.array([0.5]), 10, 0.1),
                    make_report(np.array([0.5]), 10, 0.1)),
                   (LutDocument(uniform_qam(2), "0000"), LutDocument(uniform_qam(2), "0000"))]
        for a, b in records:
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2


class TestSerialization:
    def test_round_trip_bitstable(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = normalize(make(4, pts, generator="test", trained_snr_db=7.25, seed=3))
        path = tmp_path / "c.json"
        save_constellation(c, path)
        c2 = load_constellation(path)
        assert c2.m == c.m
        assert_array_equal(c2.points, c.points)  # repr round-trip is exact
        assert c2.metadata["generator"] == "test"
        assert c2.metadata["trained_snr_db"] == 7.25
        save_constellation(c2, tmp_path / "c2.json")
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

    def test_dict_shape(self):
        doc = constellation_to_dict(uniform_qam(2))
        assert doc["version"] == 1
        assert doc["m"] == 2
        assert len(doc["points"]) == 4
        assert len(doc["points"][0]) == 2
        assert set(doc["metadata"]) >= {"generator", "trained_snr_db", "seed"}

    def test_from_dict_validates(self):
        doc = constellation_to_dict(uniform_qam(2))
        doc["points"] = doc["points"][:3]
        with pytest.raises(ParameterError):
            constellation_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("m", "x"), ("points", [[10 ** 400, 0]] * 4), ("m", 2.9), ("m", True), ("version", 99),
        ("version", True), ("metadata", 0), ("points", [[True, False]] * 4),
        ("points", [[1.0, 0.0, 0.0]] * 4), ("extra", 1), ("m", 20_000)])
    def test_from_dict_unconvertible_value_rejected(self, key, value):
        doc = {**constellation_to_dict(uniform_qam(2)), key: value}
        with pytest.raises(ParameterError):
            constellation_from_dict(doc)

    def test_from_dict_needs_version_but_not_metadata(self):
        doc = constellation_to_dict(uniform_qam(2))
        assert constellation_from_dict({k: v for k, v in doc.items() if k != "metadata"}).m == 2
        with pytest.raises(ParameterError, match="missing key 'version'"):
            constellation_from_dict({k: v for k, v in doc.items() if k != "version"})

    def test_bool_m_rejected(self):
        with pytest.raises(ParameterError, match="m must be an integer"):
            Constellation(m=True, points=np.array([1.0, -1.0]))
        # m = 0 with its 2^0 = 1 point
        with pytest.raises(ParameterError, match="^m must be an integer >= 1, got 0$"):
            Constellation(m=0, points=np.array([1.0]))

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParameterError):
            load_constellation(p)

    def test_json_is_plain_json(self, tmp_path):
        p = tmp_path / "c.json"
        save_constellation(uniform_qam(3), p)
        doc = json.loads(p.read_text())
        assert doc["m"] == 3
