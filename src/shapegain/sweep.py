"""Reach sweeps: net rate vs distance for learned and uniform QAM schemes.

run_sweep decides each grid point's candidates and evaluate_grid_point only
scores them, each at the SNR of its own moments and by its per-bit
Gauss-Hermite GMI (so M <= 64, and the eval section goes unread), keeping the
best net rate.
A learned cell's one candidate trains with a seed derived from the base seed
and the span count at its grid span's link target (training.link_target),
the SNR the span gives Gray QAM, as a train section's link target trains,
so a run config's train target goes unread; a QAM cell's are the Gray
constellations of qam_m_list. The learned cells train all in one
training.train_many call, which sizes its own runs, or all alone at their
turns, with the same bits. The cells then run one by one in (scheme,
n_spans) order, so results are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .channel import LinkConfig, optimal_launch_power, span_accumulation
from .constellation import MAX_QAM_M, moments, uniform_qam
from .demapper import MAX_QUADRATURE_M, MAX_SAMPLES, per_bit_gmi_quadrature
from .errors import (
    ParameterError,
    ShapegainError,
    build_section,
    check_field_types,
    int_tuple,
    load_json,
)
from .rate_adapt import best_plan
from .training import TrainConfig, link_target, train, train_config_from_dict, train_many

_MASK64 = (1 << 64) - 1
SCORE_NODES = 32  # Hermite nodes per noise dimension of a cell's score, see README


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
    schemes: tuple = ("ae", "qam")
    qam_m_list: tuple = ()

    def __post_init__(self):
        for name in ("span_grid", "qam_m_list"):
            object.__setattr__(self, name, int_tuple(name, getattr(self, name)))
        if not isinstance(self.schemes, (list, tuple)) or not all(
                isinstance(s, str) for s in self.schemes):
            raise ParameterError("schemes must be a list of strings")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        grid = self.span_grid
        if not grid:
            raise ParameterError("span_grid must be nonempty")
        if any(n < 1 for n in grid):
            raise ParameterError("span_grid entries must be >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("span_grid must be strictly increasing")
        if not self.schemes or not set(self.schemes) <= {"ae", "qam"}:
            raise ParameterError(
                f"schemes must be a nonempty subset of ae/qam, got {self.schemes}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ParameterError(f"schemes must not repeat a scheme, got {list(self.schemes)}")
        if "qam" in self.schemes and not self.qam_m_list:
            raise ParameterError("qam scheme requires a nonempty qam_m_list")
        if not all(1 <= m <= MAX_QAM_M for m in self.qam_m_list):
            raise ParameterError(f"qam_m_list entries must be in [1, {MAX_QAM_M}], "
                                 f"got {list(self.qam_m_list)}")
        if len(set(self.qam_m_list)) < len(self.qam_m_list):
            raise ParameterError(f"qam_m_list must not repeat an order, got "
                                 f"{list(self.qam_m_list)}")


@dataclass(frozen=True)
class EvalSettings:
    n_samples: int = 200000
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ParameterError(f"n_samples must be in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """A sweep's sections; building one refuses M > 64 and a grid span whose link overflows."""

    link: LinkConfig
    train: TrainConfig
    sweep: SweepSettings
    eval: EvalSettings = EvalSettings()

    def __post_init__(self):
        orders = {"ae": [self.train.m], "qam": self.sweep.qam_m_list}
        m = max(max(orders[scheme]) for scheme in self.sweep.schemes)
        if m > MAX_QUADRATURE_M:
            raise ParameterError(f"the sweep scores constellations of at most M = "
                                 f"{1 << MAX_QUADRATURE_M}, got M = {1 << m}")
        for n_spans in self.sweep.span_grid:
            span_accumulation(replace(self.link, n_spans=n_spans))


def load_run_config(path) -> RunConfig:
    """Parse a sweep's JSON run configuration (link/train/sweep, optional eval)."""
    return build_section("run config", _run_config, load_json(path))


def _run_config(link, train, sweep, eval={}) -> RunConfig:  # noqa: B006
    """A run config from its sections; the {} default is read, never mutated."""
    # link.n_spans and train.target are bound to placeholders the grid spans
    # override: the link cannot set the span count, and a target goes unread
    link_cfg = build_section("link config", partial(LinkConfig, 1), link)
    if isinstance(train, dict):
        train = {**train, "target": {"snr_db": 10.0}}
    train_cfg = train_config_from_dict(train)
    sweep_cfg = build_section("sweep config", partial(_sweep_settings, train_cfg.m), sweep)
    eval_cfg = build_section("eval config", EvalSettings, eval)
    return RunConfig(link=link_cfg, train=train_cfg, sweep=sweep_cfg, eval=eval_cfg)


def _sweep_settings(train_m: int, /, **sw) -> SweepSettings:
    schemes = sw.get("schemes", ("ae", "qam"))  # SweepSettings checks its type
    if "qam_m_list" not in sw and isinstance(schemes, (list, tuple)) and "qam" in schemes:
        sw["qam_m_list"] = (train_m, train_m - 1) if train_m > 1 else (train_m,)
    return SweepSettings(**sw)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, n_spans: int) -> int:
    """Per-grid-point training seed: the whole base seed xor a bit-mixed span count."""
    return base_seed ^ _splitmix64(n_spans)


def evaluate_grid_point(config: RunConfig, scheme: str, n_spans: int, candidates):
    """One sweep cell: returns (SweepRow, GmiReport, Constellation).

    Scores the candidates run_sweep decided, reading only config.link: each
    at its own power and SNR, by its per-bit Gauss-Hermite GMI on SCORE_NODES
    nodes per dimension; the best net rate wins (ties to the earlier one).
    """
    if scheme not in ("ae", "qam"):
        raise ParameterError(f"unknown scheme {scheme!r}")
    if not candidates:
        raise ParameterError("a grid point needs at least one candidate")
    link = replace(config.link, n_spans=int(n_spans))
    best = None
    for c in candidates:
        power, ch = optimal_launch_power(link, moments(c))
        report = per_bit_gmi_quadrature(c, ch.noise_variance, SCORE_NODES)
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


def _ae_train_config(config: RunConfig, n_spans: int) -> TrainConfig:
    """The ae cell's training config: its derived seed, and the link target
    of its grid span, the SNR the span gives Gray QAM (training.link_target)."""
    link = replace(config.link, n_spans=int(n_spans))
    return replace(config.train, seed=derive_seed(config.train.seed, n_spans),
                   target=link_target(link, config.train.m))


def _train_ae_cells(config: RunConfig) -> dict:
    """{n_spans: trained Constellation} for every grid span from one
    train_many call, or {} when a ShapegainError is raised building a cell's
    config or in the call: every cell then trains alone at its turn in
    run_sweep, with the same bits or the cell's own error. Any other
    exception propagates: a fault of the program, or a MemoryError that a
    lone run would meet too, as a stacked run stays within
    MAX_CELL_ENTRIES, the budget of one cell.
    """
    grid = config.sweep.span_grid
    try:
        runs = train_many([_ae_train_config(config, n) for n in grid])
    except ShapegainError:
        return {}
    return {n: c for n, (c, _) in zip(grid, runs)}


def run_sweep(config: RunConfig, error_sink=None, detail_sink=None) -> list:
    """Evaluate config's grid, checked when config was built, cell by cell in
    (scheme, n_spans) order, the order of the rows returned. Only here are a
    cell's candidates decided: qam_m_list's Gray constellations for qam, and
    for ae the cell's stacked-trained one, or one trained alone at its turn.

    A failing grid point raises an error naming the point, and no later
    point is computed, unless error_sink is given: then the point is
    skipped and reported to error_sink(scheme, n_spans, exception).
    detail_sink, if given, receives (scheme, n_spans, row, report,
    constellation) per cell.
    """
    trained = _train_ae_cells(config) if "ae" in config.sweep.schemes else {}
    gray = [uniform_qam(int(m)) for m in config.sweep.qam_m_list]
    rows = []
    for scheme in sorted(config.sweep.schemes):
        for n_spans in config.sweep.span_grid:
            try:
                if scheme == "qam":
                    candidates = gray
                elif n_spans in trained:
                    candidates = [trained[n_spans]]
                else:
                    candidates = [train(_ae_train_config(config, n_spans))[0]]
                cell = evaluate_grid_point(config, scheme, n_spans, candidates)
            except Exception as exc:  # noqa: BLE001 - classified by _wrap_grid_error
                wrapped = _wrap_grid_error(scheme, n_spans, exc)
                if error_sink is None:
                    raise wrapped from exc
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

