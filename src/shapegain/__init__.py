"""Rate-adaptive geometric constellation shaping over effective-AWGN links.

The pipeline: learn constellation point positions with gradient descent
on a GMI surrogate, detect point clusters that emerge at low SNR, turn
the information-free bit levels into dummy bits for net-rate adaptation,
and sweep net rate against distance on a span-based fiber link model.
"""

from .channel import (
    LinkConfig,
    awgn_sample,
    db_to_linear,
    effective_snr,
    nlin_factor,
    optimal_launch_power,
)
from .constellation import (
    Constellation,
    Moments,
    constellation_to_dict,
    detect_mom_clusters,
    load_constellation,
    moments,
    save_constellation,
    uniform_qam,
)
from .demapper import (
    GmiReport,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_from_samples,
    per_bit_gmi_mc,
)
from .errors import NumericalError, ParameterError, ShapegainError
from .lut import LutDocument, export_lut, parse_lut, render_lut
from .rate_adapt import (
    RateAdaptPlan,
    assemble_labels,
    best_plan,
    extract_data_bits,
    load_plan,
    net_rate,
    save_plan,
    select_dummy_bits,
)
from .sweep import (
    EvalSettings,
    OutputSettings,
    RunConfig,
    SweepSettings,
    load_run_config,
    rows_to_csv,
    run_sweep,
)
from .training import (
    GaussianDemapper,
    SnrTarget,
    TrainConfig,
    init_mapper,
    init_mlp,
    train,
)

__version__ = "0.1.0"
