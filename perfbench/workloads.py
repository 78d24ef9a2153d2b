"""The benchmark's three workloads and their output checks.

Each workload is built once from (seed, scale), which is the set-up the
benchmark times, and then run as many passes as fit in the measured
period. A pass returns its information result in bits, the outcome of
every output check on valid inputs, the outcome of the malformed-input
probes, and a digest of everything it produced (passes of one run must
agree byte for byte).

Seed 0 at scale "full" reproduces the shipped example configuration and
the acceptance-test settings exactly; scale "bench" divides iteration and
sample counts so that several passes fit in one measured period, keeping
each workload's mix of layers; scale "smoke" is the smallest run that
still exercises every layer and every check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import shapegain
import shapegain.cli

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = ROOT / "configs" / "example.json"


@dataclass(frozen=True)
class Scale:
    """Work per pass; None keeps the shipped configuration's value."""

    sweep_iterations: int | None
    sweep_samples: int | None
    gauss_iterations: int
    gauss_samples: int
    eval_samples: int
    scalar_calls: int
    framing_bits: int
    setup_repeats: int


SCALES = {
    "full": Scale(None, None, 5000, 200_000, 200_000, 10_000, 1_000_000, 5),
    "bench": Scale(600, 20_000, 500, 50_000, 20_000, 1_000, 100_000, 9),
    "smoke": Scale(20, 2_048, 20, 20_000, 4_096, 100, 10_000, 2),
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassOutcome:
    result_bits: float
    checks: list
    probes: list = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)


def _nv(snr_db: float) -> float:
    return 1.0 / shapegain.db_to_linear(snr_db)


class ReachSweep:
    """run_sweep on the shipped example configuration (6 spans x {ae, qam})."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        rc = shapegain.load_run_config(EXAMPLE_CONFIG)
        train = replace(rc.train, seed=rc.train.seed + seed)
        if scale.sweep_iterations is not None:
            train = replace(train, iterations=scale.sweep_iterations)
        ev = replace(rc.eval, seed=rc.eval.seed + seed)
        if scale.sweep_samples is not None:
            ev = replace(ev, n_samples=scale.sweep_samples)
        self.config = replace(rc, train=train, eval=ev)

    def fingerprint(self) -> str:
        return repr(self.config)

    def run_pass(self) -> PassOutcome:
        cfg = self.config
        cells = {}
        rows = shapegain.run_sweep(
            cfg, detail_sink=lambda s, n, row, rep, c: cells.__setitem__((s, n), (rep, c)))
        csv = shapegain.rows_to_csv(rows)
        grid = cfg.sweep.span_grid
        fec = cfg.link.fec_rate
        expected_rows = len(grid) * len(set(cfg.sweep.schemes))
        checks = [Check("row count", len(rows) == expected_rows,
                        f"{len(rows)} rows, expected {expected_rows}")]
        for r in rows:
            _rep, c = cells[(r.scheme, r.n_spans)]
            want = (2 * c.m - r.n_d) * fec
            checks.append(Check(f"net_rate exact {r.scheme}/{r.n_spans}",
                                r.net_rate == want,
                                f"net_rate {r.net_rate!r}, (2*{c.m}-{r.n_d})*{fec} = {want!r}"))
            if r.feasible:
                checks.append(Check(f"feasible {r.scheme}/{r.n_spans}",
                                    r.data_gmi >= r.net_rate,
                                    f"data_gmi {r.data_gmi:.4f} vs net_rate {r.net_rate}"))
        ae_gmi = sum(rep.total_dualpol for (s, _n), (rep, _c) in cells.items() if s == "ae")
        info = {"csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
                "ae_net_rate_sum": sum(r.net_rate for r in rows if r.scheme == "ae"),
                "qam_net_rate_sum": sum(r.net_rate for r in rows if r.scheme == "qam"),
                "criterion_8": self._criterion_8(rows, cells, fec)}
        return PassOutcome(result_bits=ae_gmi, checks=checks,
                           digest=info["csv_sha256"], info=info)

    @staticmethod
    def _criterion_8(rows, cells, fec) -> dict:
        """The acceptance test's ae-vs-qam comparison, recorded, not gated."""
        ae = {r.n_spans: r.net_rate for r in rows if r.scheme == "ae"}
        qam = {r.n_spans: r.net_rate for r in rows if r.scheme == "qam"}
        grid = sorted(set(ae) & set(qam))
        noninferior, wins = True, 0
        for n in grid:
            band = 3.0 * 2.0 * fec * math.hypot(cells[("ae", n)][0].stderr_total,
                                                cells[("qam", n)][0].stderr_total)
            noninferior &= ae[n] >= qam[n] - band
            wins += ae[n] > qam[n] + band
        curves = [[ae[n] for n in grid], [qam[n] for n in grid]]
        mono = all(a >= b for curve in curves for a, b in zip(curve, curve[1:]))
        return {"ae": curves[0], "qam": curves[1], "noninferior": noninferior,
                "strict_wins": wins, "non_increasing": mono,
                "pass": noninferior and wins >= 1 and mono}


class TrainGauss16:
    """m=4 Gaussian-demapper training at Gray 16QAM's 3-bit SNR, then MC GMI."""

    FLOOR = 2.98

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        from scipy.optimize import brentq

        gray = shapegain.uniform_qam(4)
        self.snr_db = brentq(
            lambda s: shapegain.gmi_oracle_quadrature(gray, _nv(s)) - 3.0,
            5.0, 15.0, xtol=1e-9)
        self.config = shapegain.TrainConfig(
            m=4, target=shapegain.SnrTarget(self.snr_db),
            iterations=scale.gauss_iterations, batch_symbols=1024,
            learning_rate=2e-3, seed=seed)
        self.samples = scale.gauss_samples
        self.eval_seed = 4 + seed

    def fingerprint(self) -> str:
        return f"{self.config!r} samples={self.samples} eval_seed={self.eval_seed}"

    def run_pass(self) -> PassOutcome:
        c, _history = shapegain.train(self.config)
        rep = shapegain.per_bit_gmi_mc(c, _nv(self.snr_db), self.samples,
                                       np.random.default_rng(self.eval_seed))
        check = Check("trained GMI floor", rep.total >= self.FLOOR,
                      f"MC GMI {rep.total:.4f} +/- {rep.stderr_total:.4f} bits "
                      f"at {self.snr_db:.3f} dB (floor {self.FLOOR})")
        digest = hashlib.sha256(c.points.tobytes() + rep.to_json().encode()).hexdigest()
        return PassOutcome(result_bits=rep.total, checks=[check], digest=digest,
                           info={"snr_db": self.snr_db, "stderr_total": rep.stderr_total})


# (m, SNR in dB): low SNR, criterion 4's SNR, the LLR-clipping regime, and
# the two large formats where the (S, M) demapper temporaries dominate
EVAL_CASES = ((2, 3.0), (4, 9.3), (4, 40.0), (6, 15.0), (8, 21.0))
FEC_RATE = 0.75
QUADRATURE_MAX_POINTS = 64


def _cli(argv) -> tuple:
    """Run shapegain's CLI in-process: (exit code or None, exception or None)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return shapegain.cli.main([str(a) for a in argv]), None
        except Exception as exc:  # noqa: BLE001 - an escaped exception is the finding
            return None, exc


class EvalPipeline:
    """The command-line user path: qam -> eval -> adapt --best -> export-lut."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.dir = workdir
        self.probe_specs = self._write_probe_inputs()

    def fingerprint(self) -> str:
        return f"seed={self.seed} {self.scale!r} cases={EVAL_CASES} probes={len(self.probe_specs)}"

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _write_probe_inputs(self) -> list:
        """Malformed command lines; each should end in exit code 1, 2 or 3."""
        d = self._path
        # a documentation key nested below the top level of the train
        # section; the link is also invalid (negative ASE), so the command
        # must fail whether or not nested notes are accepted
        note_cfg = {"train": {"m": 2, "iterations": 0, "target": {"link": {
            "_note": "comment keys may appear at any depth", "n_spans": 2,
            "ase_var_per_span": -1.0, "chi1": 0.3, "chi2": 0.1}}}}
        Path(d("probe_note.json")).write_text(json.dumps(note_cfg))
        short = {"per_bit": [0.9, 0.8, 0.7, 0.6], "total": 3.0,
                 "per_bit_dualpol": [0.9, 0.8, 0.7], "total_dualpol": 6.0,
                 "n_samples": 1000, "stderr_total": 0.01}
        Path(d("probe_short_report.json")).write_text(json.dumps(short))
        Path(d("probe_not_json.json")).write_text("{not json")
        Path(d("probe_q4.json")).write_text(
            json.dumps(shapegain.constellation_to_dict(shapegain.uniform_qam(4))))
        Path(d("probe_q2.json")).write_text(
            json.dumps(shapegain.constellation_to_dict(shapegain.uniform_qam(2))))
        plan = shapegain.select_dummy_bits(
            shapegain.demapper.make_report(np.array(short["per_bit"]), 1000, 0.01),
            0, FEC_RATE)
        Path(d("probe_plan4.json")).write_text(plan.to_json())
        grid = json.loads(EXAMPLE_CONFIG.read_text())
        grid["sweep"]["span_grid"] = [8, 4]
        Path(d("probe_grid.json")).write_text(json.dumps(grid))
        return [
            ("train: _note nested under train.target.link",
             ["train", "--config", d("probe_note.json"), "--out", d("probe_out.json")]),
            ("adapt: per_bit_dualpol of the wrong length",
             ["adapt", "--constellation", d("probe_q4.json"),
              "--report", d("probe_short_report.json"), "--best"]),
            ("eval: --snr-db 1e6",
             ["eval", "--constellation", d("probe_q4.json"), "--snr-db", "1e6",
              "--samples", "64"]),
            ("qam: --m 0", ["qam", "--m", "0"]),
            ("eval: missing constellation file",
             ["eval", "--constellation", d("probe_missing.json"), "--snr-db", "5"]),
            ("eval: --samples 0",
             ["eval", "--constellation", d("probe_q4.json"), "--snr-db", "5",
              "--samples", "0"]),
            ("adapt: report is not JSON",
             ["adapt", "--constellation", d("probe_q4.json"),
              "--report", d("probe_not_json.json"), "--best"]),
            ("adapt: --nd out of range",
             ["adapt", "--constellation", d("probe_q4.json"),
              "--report", d("probe_short_report.json"), "--nd", "99"]),
            ("export-lut: plan for another m",
             ["export-lut", "--constellation", d("probe_q2.json"),
              "--plan", d("probe_plan4.json"), "--out", d("probe_lut.csv")]),
            ("sweep: decreasing span_grid",
             ["sweep", "--config", d("probe_grid.json"), "--out", d("probe_sweep.csv")]),
            ("no subcommand", []),
        ]

    def run_pass(self) -> PassOutcome:
        checks, digest, result = [], hashlib.sha256(), 0.0
        for index, (m, snr_db) in enumerate(EVAL_CASES):
            result += self._case(index, m, snr_db, checks, digest)
        checks.append(self._scalar_llr(digest))
        probes = []
        for name, argv in self.probe_specs:
            code, exc = _cli(argv)
            if exc is not None:
                probes.append(Check(name, False,
                                    f"uncaught {type(exc).__name__}: {exc}"))
            else:
                probes.append(Check(name, code in (1, 2, 3), f"exit code {code}"))
        return PassOutcome(result_bits=result, checks=checks, probes=probes,
                           digest=digest.hexdigest())

    def _case(self, index, m, snr_db, checks, digest) -> float:
        tag = f"m={m} @ {snr_db:g} dB"
        c_path, r_path = self._path(f"c{index}.json"), self._path(f"r{index}.json")
        p_path, l_path = self._path(f"p{index}.json"), self._path(f"lut{index}.csv")
        steps = (
            ["qam", "--m", m, "--out", c_path],
            ["eval", "--constellation", c_path, "--snr-db", snr_db,
             "--samples", self.scale.eval_samples, "--seed", self.seed + index,
             "--out", r_path],
            ["adapt", "--constellation", c_path, "--report", r_path, "--best",
             "--fec-rate", FEC_RATE, "--out", p_path],
            ["export-lut", "--constellation", c_path, "--plan", p_path, "--out", l_path],
        )
        for argv in steps:
            code, exc = _cli(argv)
            ok = exc is None and code == 0
            checks.append(Check(f"cli {argv[0]} {tag}", ok,
                                f"exit code {code}" if exc is None
                                else f"uncaught {type(exc).__name__}: {exc}"))
            if not ok:
                return 0.0
        for path in (c_path, r_path, p_path, l_path):
            digest.update(Path(path).read_bytes())

        report = json.loads(Path(r_path).read_text())
        plan = shapegain.RateAdaptPlan.from_dict(json.loads(Path(p_path).read_text()))
        c = shapegain.load_constellation(c_path)

        if c.size <= QUADRATURE_MAX_POINTS:
            quad = shapegain.gmi_oracle_quadrature(c, _nv(snr_db))
            tol = 3.0 * report["stderr_total"] + 0.02
            gap = abs(report["total"] - quad)
            checks.append(Check(f"MC vs quadrature {tag}", gap <= tol,
                                f"|{report['total']:.4f} - {quad:.4f}| = {gap:.4f} "
                                f"(tol {tol:.4f})"))

        text = Path(l_path).read_text()
        doc = shapegain.parse_lut(l_path)
        lut_ok = (np.array_equal(doc.constellation.points, c.points)
                  and doc.dual_pol_mask == plan.dummy_mask()
                  and shapegain.render_lut(doc.constellation, doc.dual_pol_mask) == text)
        checks.append(Check(f"parse_lut round trip {tag}", lut_ok,
                            f"mask {doc.dual_pol_mask}"))

        per_sym = 2 * m - plan.n_d
        n_bits = per_sym * (self.scale.framing_bits // per_sym) if per_sym else 0
        bits = np.random.default_rng([17, self.seed, index]).integers(
            0, 2, n_bits, dtype=np.int64)
        labels = shapegain.assemble_labels(bits, plan, m,
                                           np.random.default_rng([99, self.seed, index]))
        back = shapegain.extract_data_bits(labels, plan, m)
        checks.append(Check(f"framing identity {tag}", np.array_equal(back, bits),
                            f"{n_bits} bits, n_d={plan.n_d}"))
        return plan.data_gmi

    def _scalar_llr(self, digest) -> Check:
        """Per-call overhead at tiny M: scalar QPSK LLRs vs the 4-term sum."""
        n = self.scale.scalar_calls
        rng = np.random.default_rng(2 + self.seed)
        s2 = rng.uniform(0.5, 2.0, n)
        y = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        qpsk = shapegain.uniform_qam(2)
        got = np.array([shapegain.llr_exact(yi, qpsk, vi) for yi, vi in zip(y, s2)])
        bits = qpsk.bits()
        lik = np.exp(-np.abs(y[:, None] - qpsk.points[None, :]) ** 2 / s2[:, None])
        naive = np.stack([np.log(lik[:, bits[:, k] == 0].sum(axis=1)
                                 / lik[:, bits[:, k] == 1].sum(axis=1))
                          for k in range(2)], axis=1)
        digest.update(got.tobytes())
        err = float(np.max(np.abs(got - naive)))
        return Check("scalar llr_exact vs closed form", err < 1e-9,
                     f"{n} calls, max err {err:.1e} (tol 1e-9)")


WORKLOADS = {
    "reach_sweep": ReachSweep,
    "train_gauss16": TrainGauss16,
    "eval_pipeline": EvalPipeline,
}


def build(name: str, seed: int, scale: str, workdir) -> object:
    """Set-up: the workload object with every input it needs."""
    workdir = Path(workdir)
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, SCALES[scale], workdir)
