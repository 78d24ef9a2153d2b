"""Acceptance gate: nine numbered end-to-end criteria, one verdict line each.

Every test prints "[criterion N] PASS/FAIL: <detail>" before asserting, so a
red criterion still leaves its verdict in the log (conftest.py echoes the
lines after the run summary). Tolerances and wall-clock budgets are part of
the criteria and are asserted, not advisory.

Training-based criteria pin seeds: small-batch training at these sizes is
multi-stable, and the pinned seeds select equilibria whose margins were
measured well clear of the thresholds (several other seeds land on the same
outcome; see the seed notes next to each config).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from shapegain import (
    EvalSettings,
    GaussianDemapper,
    LinkConfig,
    Moments,
    RunConfig,
    SnrTarget,
    SweepSettings,
    TrainConfig,
    awgn_sample,
    best_plan,
    db_to_linear,
    detect_mom_clusters,
    effective_snr,
    extract_data_bits,
    assemble_labels,
    gmi_oracle_quadrature,
    init_mapper,
    init_mlp,
    llr_exact,
    load_constellation,
    load_run_config,
    moments,
    net_rate,
    nlin_factor,
    optimal_launch_power,
    parse_lut,
    per_bit_gmi_mc,
    render_lut,
    rows_to_csv,
    run_sweep,
    save_constellation,
    select_dummy_bits,
    train,
    uniform_qam,
)
from shapegain.demapper import make_report
from stepcheck import gradient_check

EXAMPLE_CONFIG = Path(__file__).parent.parent / "configs" / "example.json"

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append((n, line))
    print(line)
    assert ok, line


@contextmanager
def _criterion(n: int):
    # guarantee a verdict line even when the body dies before _verdict
    try:
        yield
    except BaseException as exc:
        if not any(k == n for k, _ in ACCEPTANCE_LINES):
            line = f"[criterion {n}] FAIL: aborted by {exc!r}"
            ACCEPTANCE_LINES.append((n, line))
            print(line)
        raise


def _nv(snr_db: float) -> float:
    return 1.0 / db_to_linear(snr_db)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_mc_gmi_matches_quadrature_oracle():
    with _criterion(1):
        t0 = time.monotonic()
        worst = -math.inf  # max over cases of |mc - quad| - tolerance
        for m in (2, 4):
            c = uniform_qam(m)
            for snr_db in (0.0, 5.0, 10.0, 15.0):
                rep = per_bit_gmi_mc(c, _nv(snr_db), 200_000,
                                     np.random.default_rng([10, m, int(snr_db)]))
                tol = max(0.02, 3.0 * rep.stderr_total)
                gap = abs(rep.total - gmi_oracle_quadrature(c, _nv(snr_db)))
                worst = max(worst, gap - tol)
        dt = time.monotonic() - t0
        _verdict(1, worst <= 0.0 and dt < 60.0,
                 f"8 format/SNR cases, worst gap minus tolerance "
                 f"{worst:+.4f} bits, {dt:.1f}s (budget 60s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_llr_closed_forms():
    with _criterion(2):
        rng = np.random.default_rng(2)
        s2 = rng.uniform(0.5, 2.0, 10_000)
        y = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000)) / np.sqrt(2)

        bpsk = uniform_qam(1)
        expect = 4.0 * y.real / s2
        assert np.max(np.abs(expect)) < 50.0  # draws stay clear of the clip
        got = np.array([llr_exact(yi, bpsk, vi)[0] for yi, vi in zip(y, s2)])
        bpsk_err = float(np.max(np.abs(got - expect)))

        qpsk = uniform_qam(2)
        bits = qpsk.bits()
        lik = np.exp(-np.abs(y[:, None] - qpsk.points[None, :]) ** 2 / s2[:, None])
        naive = np.stack([np.log(lik[:, bits[:, k] == 0].sum(axis=1)
                                 / lik[:, bits[:, k] == 1].sum(axis=1))
                          for k in range(2)], axis=1)
        assert np.max(np.abs(naive)) < 50.0
        got_q = np.array([llr_exact(yi, qpsk, vi) for yi, vi in zip(y, s2)])
        qpsk_err = float(np.max(np.abs(got_q - naive)))

        _verdict(2, bpsk_err < 1e-12 and qpsk_err < 1e-9,
                 f"10^4 draws each: BPSK vs 4*Re(y)/s2 max err {bpsk_err:.1e} "
                 f"(tol 1e-12), QPSK vs 4-term sum max err {qpsk_err:.1e} (tol 1e-9)")


# --------------------------------------------------------------- criterion 3


def _criterion_3_report(mode: str, m: int):
    cfg = TrainConfig(m=m, target=SnrTarget(8.0), iterations=1,
                      batch_symbols=16 * (1 << m),
                      demapper_mode=mode, mlp_hidden=(16, 16))
    rng = np.random.default_rng(100 * (mode == "mlp") + m)
    raw = init_mapper(cfg, rng)
    dem = (GaussianDemapper() if mode == "gaussian"
           else init_mlp(m, cfg.mlp_hidden, rng))
    labels = np.repeat(np.arange(1 << m), 16)
    noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), _nv(8.0))
    return gradient_check(raw, dem, labels, noise, _nv(8.0),
                          n_probes=20, tolerance=1e-4,
                          rng=np.random.default_rng(m))


def test_criterion_3_gradient_check_both_demappers():
    with _criterion(3):
        t0 = time.monotonic()
        all_passed = True
        worst = 0.0
        for mode in ("gaussian", "mlp"):
            for m in (2, 3, 4):
                rep = _criterion_3_report(mode, m)
                all_passed &= rep.passed
                worst = max(worst, rep.max_rel_err)
        dt = time.monotonic() - t0
        _verdict(3, all_passed and dt < 30.0,
                 f"gaussian+mlp, M in {{4,8,16}}, 20 probes each: max rel err "
                 f"{worst:.2e} (tol 1e-4), {dt:.1f}s (budget 30s)")


# Each case's probe count and worst error, exactly: a change to the checker
# or to the training step it differentiates moves them.
@pytest.mark.parametrize("mode, m, n_probes, max_rel_err", [
    ("gaussian", 2, 8, "1.5570734848878974e-09"),
    ("gaussian", 3, 16, "1.9789512533772474e-09"),
    ("gaussian", 4, 20, "1.7980431752857044e-09"),
    ("mlp", 2, 20, "8.066926092374688e-09"),
    ("mlp", 3, 20, "4.326230216066772e-08"),
    ("mlp", 4, 20, "1.0365812467911392e-07"),
])
def test_criterion_3_probe_pins(mode, m, n_probes, max_rel_err):
    rep = _criterion_3_report(mode, m)
    assert (len(rep.probes), repr(rep.max_rel_err)) == (n_probes, max_rel_err)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_shaping_not_inferior_to_gray_qam():
    with _criterion(4):
        t0 = time.monotonic()
        gray = uniform_qam(4)
        snr_db = brentq(lambda s: gmi_oracle_quadrature(gray, _nv(s)) - 3.0,
                        5.0, 15.0, xtol=1e-9)
        # seed 0 measured at MC GMI 3.013; seed 1 at 3.016
        cfg = TrainConfig(m=4, target=SnrTarget(snr_db), iterations=5000,
                          batch_symbols=1024, learning_rate=2e-3, seed=0)
        c, _ = train(cfg)
        rep = per_bit_gmi_mc(c, _nv(snr_db), 200_000, np.random.default_rng(4))
        dt = time.monotonic() - t0
        _verdict(4, rep.total >= 3.0 - 0.02 and dt < 300.0,
                 f"trained MC GMI {rep.total:.4f} bits at {snr_db:.3f} dB "
                 f"(floor 2.98), {dt:.0f}s (budget 300s)")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_low_snr_collapse_yields_dummy_plan():
    with _criterion(5):
        # The width-4 demapper cannot resolve 16 points at 2 dB, so training
        # reuses positions and strands the bits that distinguished them.
        # Seed 5 lands on the full 4-clusters-of-4 equilibrium (as do seeds
        # 1, 3, 12, 16); some seeds merge only partially.
        cfg = TrainConfig(m=4, target=SnrTarget(2.0), iterations=8000,
                          batch_symbols=1024, learning_rate=2e-3, seed=5,
                          demapper_mode="mlp", mlp_hidden=(4,))
        c, _ = train(cfg)
        clusters = detect_mom_clusters(c, epsilon=0.05)
        rep = per_bit_gmi_mc(c, _nv(2.0), 200_000, np.random.default_rng(7))
        plan = best_plan(rep, 0.75)

        covered = False
        if clusters:
            largest = max(clusters, key=lambda cl: len(cl.member_labels))
            need = set(largest.ambiguous_bit_positions)
            pos = set(plan.dummy_positions)
            # ambiguous positions are per-polarization; the plan indexes
            # dual-pol levels, so both images must be dummies
            covered = need <= pos and {p + cfg.m for p in need} <= pos
        ok = (len(clusters) >= 1 and float(rep.per_bit.min()) < 0.1
              and plan.n_d >= 1 and covered)
        _verdict(5, ok,
                 f"{len(clusters)} clusters of sizes "
                 f"{[len(cl.member_labels) for cl in clusters]}, min per-bit GMI "
                 f"{rep.per_bit.min():.2e} (tol 0.1), n_d={plan.n_d}, "
                 f"largest cluster's ambiguous levels covered={covered}")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_net_rate_values_exact():
    with _criterion(6):
        got = [net_rate(8, n_d, 0.75) for n_d in (0, 1, 2)]
        _verdict(6, got == [12.0, 11.25, 10.5],
                 f"net_rate(8, n_d, 3/4) for n_d=0,1,2 = {got} (exact)")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_launch_power_optimality_identity():
    with _criterion(7):
        rng = np.random.default_rng(7)
        done = 0
        worst_bal = 0.0  # |NLIN - ASE/2| at the closed-form optimum
        worst_rel = 0.0  # |p_golden - p_closed| / p_closed
        while done < 100:
            lk = LinkConfig(
                n_spans=int(rng.integers(1, 30)),
                ase_var_per_span=float(rng.uniform(1e-4, 2e-2)),
                chi1=float(rng.uniform(0.0, 1.0)),
                chi2=float(rng.uniform(-0.3, 0.5)),
                chi3=float(rng.uniform(0.0, 0.2)),
                eps_accum=float(rng.uniform(0.0, 0.2)),
            )
            mom = Moments(mu2=1.0, mu4_hat=float(rng.uniform(1.0, 2.5)),
                          mu6_hat=float(rng.uniform(1.0, 9.0)))
            if nlin_factor(lk, mom) <= 0.0:
                continue  # clamped eta has no finite optimum by design
            done += 1
            p_opt, _ = optimal_launch_power(lk, mom)
            ase = lk.n_spans * lk.ase_var_per_span
            nlin = p_opt ** 3 * nlin_factor(lk, mom) * lk.n_spans ** (1.0 + lk.eps_accum)
            worst_bal = max(worst_bal, abs(nlin - ase / 2.0))
            res = minimize_scalar(
                lambda p: -effective_snr(lk, p, mom).snr_linear,
                bracket=(p_opt / 10.0, p_opt, p_opt * 10.0),
                method="golden", options={"xtol": 1e-12})
            worst_rel = max(worst_rel, abs(res.x - p_opt) / p_opt)
        _verdict(7, worst_bal < 1e-9 and worst_rel < 1e-6,
                 f"100 draws with eta>0: max |NLIN - ASE/2| {worst_bal:.1e} "
                 f"(tol 1e-9), max golden-section rel dev {worst_rel:.1e} (tol 1e-6)")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_reach_sweep_beats_uniform_qam():
    with _criterion(8):
        t0 = time.monotonic()
        rc = load_run_config(EXAMPLE_CONFIG)
        # the criterion is about this exact shipped setup; pin its shape so
        # config drift cannot silently weaken the comparison
        assert rc.train.m == 4
        assert rc.sweep.qam_m_list == (4, 3)
        assert rc.sweep.span_grid == (4, 8, 12, 16, 20, 24)

        chosen: dict[tuple[str, int], object] = {}
        rows = run_sweep(rc, detail_sink=lambda s, n, row, rep, c:
                         chosen.__setitem__((s, n), c))
        ae = {r.n_spans: r.net_rate for r in rows if r.scheme == "ae"}
        qam = {r.n_spans: r.net_rate for r in rows if r.scheme == "qam"}
        grid = sorted(ae)

        def mc_stderr(scheme: str, n: int) -> float:
            # the sweep scores a cell by quadrature, which has no error bar;
            # the band keeps the Monte-Carlo one the sweep once drew: 200000
            # samples of the chosen constellation at the cell's noise, seeded
            # by (eval seed, span count, scheme code, order)
            c = chosen[(scheme, n)]
            _, ch = optimal_launch_power(replace(rc.link, n_spans=n), moments(c))
            rng = np.random.default_rng([2026, n, 0 if scheme == "ae" else 1, c.m])
            return per_bit_gmi_mc(c, ch.noise_variance, 200_000, rng).stderr_total

        noninferior = True
        strict_wins = 0
        for n in grid:
            # stderr_total is per-polarization GMI; map the 3-sigma band onto
            # the net-rate axis (dual pol, FEC-scaled) before comparing
            band = 3.0 * 2.0 * rc.link.fec_rate * math.hypot(
                mc_stderr("ae", n), mc_stderr("qam", n))
            noninferior &= ae[n] >= qam[n] - band
            strict_wins += ae[n] > qam[n] + band
        ae_curve = [ae[n] for n in grid]
        qam_curve = [qam[n] for n in grid]
        mono = (all(a >= b for a, b in zip(ae_curve, ae_curve[1:]))
                and all(a >= b for a, b in zip(qam_curve, qam_curve[1:])))
        dt = time.monotonic() - t0
        _verdict(8, noninferior and strict_wins >= 1 and mono and dt < 1200.0,
                 f"spans {grid}: ae {ae_curve} vs qam {qam_curve}, "
                 f"strict wins {strict_wins}, non-increasing={mono}, "
                 f"{dt:.0f}s (budget 1200s)")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_round_trips_and_determinism(tmp_path):
    with _criterion(9):
        # save -> load -> save of a trained (irrational-coordinate)
        # constellation must reproduce the file byte for byte
        cfg = TrainConfig(m=3, target=SnrTarget(9.0), iterations=50,
                          batch_symbols=512, seed=21)
        c, _ = train(cfg)
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        save_constellation(c, p1)
        c2 = load_constellation(p1)
        save_constellation(c2, p2)
        json_ok = (p1.read_bytes() == p2.read_bytes()
                   and np.array_equal(c.points, c2.points))

        # LUT text round-trip; X/Y masks differ to force split tables
        mask = "001011"
        text1 = render_lut(c, mask)
        lut_path = tmp_path / "lut.csv"
        lut_path.write_text(text1)
        doc = parse_lut(lut_path)
        lut_ok = (render_lut(doc.constellation, doc.dual_pol_mask) == text1
                  and np.array_equal(doc.constellation.points, c.points)
                  and doc.dual_pol_mask == mask)

        # dummy framing must be the identity on ~10^6-bit streams; stream
        # length is trimmed to whole dual-pol symbols (8 - n_d data bits each)
        rep = make_report(np.array([0.9, 0.7, 0.5, 0.3]), 10_000, 1e-3)
        frame_ok = True
        for n_d in range(4):
            plan = select_dummy_bits(rep, n_d, 0.75)
            per_sym = 8 - n_d
            n_bits = per_sym * (1_000_000 // per_sym)
            bits = np.random.default_rng(17 + n_d).integers(0, 2, n_bits, dtype=np.int64)
            labels = assemble_labels(bits, plan, 4, np.random.default_rng(99))
            frame_ok &= np.array_equal(extract_data_bits(labels, plan, 4), bits)

        # identical sweep runs must serialize to identical bytes
        rc = RunConfig(
            link=LinkConfig(n_spans=1, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1),
            train=TrainConfig(m=2, target=SnrTarget(10.0), iterations=200,
                              batch_symbols=256, seed=5),
            sweep=SweepSettings(span_grid=(2, 6), schemes=("ae", "qam"),
                                qam_m_list=(2,)),
            eval=EvalSettings(n_samples=20_000, seed=7),
        )
        csv1 = rows_to_csv(run_sweep(rc)).encode()
        csv2 = rows_to_csv(run_sweep(rc)).encode()
        det_ok = csv1 == csv2

        _verdict(9, json_ok and lut_ok and frame_ok and det_ok,
                 f"constellation json byte-stable={json_ok}, lut byte-stable={lut_ok}, "
                 f"framing identity (n_d 0..3, ~1e6 bits)={frame_ok}, "
                 f"sweep csv byte-identical={det_ok}")
