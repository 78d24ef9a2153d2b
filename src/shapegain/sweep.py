"""Reach sweeps: net rate vs distance for learned and uniform QAM schemes.

Every grid point (scheme, n_spans) is independent: the learned scheme
retrains at the grid point's effective SNR with a seed derived from the
base seed and the span count, the QAM scheme picks the best net rate over
a list of modulation orders. With an MLP receiver, run_sweep trains the
learned cells together, in training.train_many runs with one cell per
span count and as many cells per run as the per-cell array budget allows
(one run for the shipped config), and each of them equals its lone
train() bit for bit; with the Gaussian receiver each learned cell trains
alone. The cells then run one by one in (scheme, n_spans) order, so
results are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from .channel import LinkConfig, check_launch_power, launch_channel
from .constellation import moments, uniform_qam
from .demapper import MAX_SAMPLES, per_bit_gmi_mc
from .errors import (
    ParameterError,
    ShapegainError,
    build_section,
    check_field_types,
    int_tuple,
    load_json,
)
from .rate_adapt import best_plan
from .training import (
    MAX_CELL_ENTRIES,
    SnrTarget,
    TrainConfig,
    train,
    train_config_from_dict,
    train_many,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    n_spans: int
    distance_km: float
    launch_power: float
    snr_eff_db: float
    n_d: int
    data_gmi: float
    net_rate: float
    feasible: bool


@dataclass(frozen=True)
class SweepSettings:
    span_grid: tuple
    launch_power: Union[float, str] = "optimal"
    schemes: tuple = ("ae", "qam")
    qam_m_list: tuple = ()

    def __post_init__(self):
        for name in ("span_grid", "qam_m_list"):
            object.__setattr__(self, name, int_tuple(name, getattr(self, name)))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        grid = self.span_grid
        if not grid:
            raise ParameterError("span_grid must be nonempty")
        if any(n < 1 for n in grid):
            raise ParameterError("span_grid entries must be >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("span_grid must be strictly increasing")
        check_launch_power(self.launch_power)
        if not self.schemes or not set(self.schemes) <= {"ae", "qam"}:
            raise ParameterError(
                f"schemes must be a nonempty subset of ae/qam, got {self.schemes}")
        if "qam" in self.schemes and not self.qam_m_list:
            raise ParameterError("qam scheme requires a nonempty qam_m_list")


@dataclass(frozen=True)
class EvalSettings:
    n_samples: int = 200000
    seed: int = 0
    epsilon_mom: float = 0.01

    def __post_init__(self):
        check_field_types(self)
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ParameterError(f"n_samples must be in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if not self.epsilon_mom > 0:
            raise ParameterError("epsilon_mom must be positive")


@dataclass(frozen=True)
class OutputSettings:
    results_csv: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.results_csv, (str, type(None))):
            raise ParameterError("results_csv must be a path string")


@dataclass(frozen=True)
class RunConfig:
    link: LinkConfig
    train: TrainConfig
    sweep: Optional[SweepSettings] = None
    eval: EvalSettings = EvalSettings()
    output: OutputSettings = OutputSettings()


def load_run_config(path) -> RunConfig:
    """Parse a JSON run-configuration file (link/train/sweep/eval sections)."""
    doc = load_json(path)
    if not isinstance(doc, dict) or "link" not in doc or "train" not in doc:
        raise ParameterError(f"{path}: config needs 'link' and 'train' sections")
    # n_spans is a placeholder, the grid overrides it
    link = build_section("link", partial(LinkConfig, n_spans=1), doc["link"])
    train_doc = doc["train"]
    if isinstance(train_doc, dict) and "target" not in train_doc:
        # sweeps retarget every grid point, so a standalone target is optional here
        train_doc = {**train_doc, "target": {"snr_db": 10.0}}
    train_cfg = train_config_from_dict(train_doc)
    sweep_cfg = None
    if "sweep" in doc:
        sweep_cfg = build_section("sweep", partial(_sweep_settings, train_cfg.m),
                                  doc["sweep"])
    return RunConfig(link=link, train=train_cfg, sweep=sweep_cfg,
                     eval=build_section("eval", EvalSettings, doc.get("eval", {})),
                     output=build_section("output", OutputSettings, doc.get("output", {})))


def _sweep_settings(train_m: int, /, **sw) -> SweepSettings:
    if "qam_m_list" not in sw and "qam" in sw.get("schemes", ("ae", "qam")):
        sw["qam_m_list"] = (train_m, train_m - 1) if train_m > 1 else (train_m,)
    return SweepSettings(**sw)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, n_spans: int) -> int:
    """Per-grid-point training seed: base xor a bit-mixed span count."""
    return (base_seed ^ _splitmix64(n_spans)) & _MASK64


def _eval_rng(config: RunConfig, n_spans: int, scheme: str, m: int):
    code = 0 if scheme == "ae" else 1
    return np.random.default_rng([config.eval.seed, n_spans, code, m])


def evaluate_grid_point(config: RunConfig, scheme: str, n_spans: int):
    """One sweep cell: returns (SweepRow, GmiReport, Constellation).

    "qam" evaluates every order in qam_m_list and keeps the best net rate
    (ties to the earlier list entry). "ae" resolves the grid point's SNR
    with Gray-QAM moments as a proxy, trains at that SNR with a derived
    seed, then re-resolves power and SNR with the trained constellation's
    own moments before evaluation.
    """
    if config.sweep is None:
        raise ParameterError("config has no sweep section")
    if scheme == "qam":
        candidates = [uniform_qam(int(m)) for m in config.sweep.qam_m_list]
    elif scheme == "ae":
        candidates = [train(_ae_train_config(config, n_spans))[0]]
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")
    return _evaluate_cell(config, scheme, n_spans, candidates)


def _ae_train_config(config: RunConfig, n_spans: int) -> TrainConfig:
    """The ae cell's training config: its derived seed, and the SNR that the
    grid point gives Gray QAM, a proxy for the untrained constellation."""
    link = replace(config.link, n_spans=int(n_spans))
    _, ch0 = launch_channel(link, moments(uniform_qam(config.train.m)),
                            config.sweep.launch_power)
    return replace(config.train, seed=derive_seed(config.train.seed, n_spans),
                   target=SnrTarget(ch0.snr_db))


def _evaluate_cell(config: RunConfig, scheme: str, n_spans: int, candidates: list):
    """The cell's row from its candidate constellations: each is evaluated
    at its own power and SNR, and the best net rate wins."""
    link = replace(config.link, n_spans=int(n_spans))
    best = None
    for c in candidates:
        power, ch = launch_channel(link, moments(c), config.sweep.launch_power)
        report = per_bit_gmi_mc(c, ch.noise_variance, config.eval.n_samples,
                                _eval_rng(config, n_spans, scheme, c.m))
        plan = best_plan(report, link.fec_rate)
        if best is None or plan.net_rate > best[4].net_rate:
            best = (c, power, ch, report, plan)
    c, power, ch, report, plan = best
    row = SweepRow(
        scheme=scheme,
        n_spans=int(n_spans),
        distance_km=link.n_spans * link.span_length_km,
        launch_power=power,
        snr_eff_db=ch.snr_db,
        n_d=plan.n_d,
        data_gmi=plan.data_gmi,
        net_rate=plan.net_rate,
        feasible=plan.feasible,
    )
    return row, report, c


def _train_ae_cells(config: RunConfig) -> dict:
    """{n_spans: trained Constellation} of the ae cells, from train_many runs.

    Only MLP-receiver cells are stacked: their step is many small calls,
    whose fixed cost K cells share. train_many refuses to stack Gaussian
    cells: their metric is computed one cell at a time, so stacking would
    batch nothing. A stacked run takes as many cells, in span order, as
    keep their summed sum(mlp_hidden) * batch_symbols within
    MAX_CELL_ENTRIES, the budget of a lone cell.
    Empty for Gaussian cells; a cell is missing when its run raises, and
    then trains alone in evaluate_grid_point, whose row or error is
    exactly the cell's.
    """
    if config.train.demapper_mode != "mlp":
        return {}
    configs = {}
    for n in config.sweep.span_grid:
        try:
            configs[n] = _ae_train_config(config, n)
        except Exception:  # noqa: BLE001 - the cell raises it again when it runs
            continue
    entries = sum(config.train.mlp_hidden) * config.train.batch_symbols
    per_run = MAX_CELL_ENTRIES // max(1, entries)
    spans, trained = list(configs), {}
    for lo in range(0, len(spans), per_run):
        chunk = spans[lo:lo + per_run]
        try:
            runs = train_many([configs[n] for n in chunk])
        except Exception:  # noqa: BLE001 - see the docstring
            continue
        trained.update((n, c) for n, (c, _) in zip(chunk, runs))
    return trained


def run_sweep(config: RunConfig, keep_going: bool = False, error_sink=None,
              detail_sink=None) -> list:
    """Evaluate the whole grid, one cell after another in (scheme, n_spans)
    order, which is the order of the rows returned.

    A failing grid point raises an error naming the point, and no later
    point is computed, unless keep_going is set, in which case the point is
    skipped and reported to error_sink(scheme, n_spans, exception).
    detail_sink, if given, receives (scheme, n_spans, row, report,
    constellation) per cell. With an MLP receiver the ae cells train
    together first.
    """
    if config.sweep is None:
        raise ParameterError("config has no sweep section")
    trained = _train_ae_cells(config) if "ae" in config.sweep.schemes else {}
    rows = []
    for scheme in sorted(set(config.sweep.schemes)):
        for n_spans in config.sweep.span_grid:
            try:
                if scheme == "ae" and n_spans in trained:
                    cell = _evaluate_cell(config, scheme, n_spans, [trained[n_spans]])
                else:
                    cell = evaluate_grid_point(config, scheme, n_spans)
            except Exception as exc:  # noqa: BLE001 - classified by _wrap_grid_error
                wrapped = _wrap_grid_error(scheme, n_spans, exc)
                if not keep_going:
                    raise wrapped from exc
                if error_sink is not None:
                    error_sink(scheme, n_spans, wrapped)
                continue
            rows.append(cell[0])
            if detail_sink is not None:
                detail_sink(scheme, n_spans, *cell)
    return rows


def _wrap_grid_error(scheme: str, n_spans: int, exc: Exception):
    msg = f"grid point (scheme={scheme}, n_spans={n_spans}): {exc}"
    if isinstance(exc, ShapegainError):
        return type(exc)(msg)
    return ShapegainError(msg)


def rows_to_csv(rows) -> str:
    """Fixed-order CSV, floats at 6 significant digits, booleans lowercase."""
    lines = ["scheme,n_spans,distance_km,launch_power,snr_eff_db,"
             "n_d,data_gmi,net_rate,feasible"]
    for r in rows:
        lines.append(
            f"{r.scheme},{r.n_spans},{r.distance_km:.6g},{r.launch_power:.6g},"
            f"{r.snr_eff_db:.6g},{r.n_d},{r.data_gmi:.6g},{r.net_rate:.6g},"
            f"{'true' if r.feasible else 'false'}")
    return "\n".join(lines) + "\n"


def max_reach(rows, target_net_rate: float, scheme: str) -> Optional[float]:
    """Largest feasible distance whose net rate meets the target, else None."""
    good = [r.distance_km for r in rows
            if r.scheme == scheme and r.feasible and r.net_rate >= target_net_rate]
    return max(good) if good else None
