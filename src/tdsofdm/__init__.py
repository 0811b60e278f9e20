"""Link-level TDS-OFDM simulation: PN-based and data-aided channel estimation."""

__version__ = "0.1.0"

import os

# The tiny solves and products of one trial lose time to BLAS thread
# hand-off.  This pin only takes effect if numpy is not loaded yet, and an
# explicit OPENBLAS_NUM_THREADS setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .sequences import PRIMITIVE_POLYS, PnSequence, build_gi, generate_mseq
from .modulation import Constellation, constellation, hard_decisions, map_bits
from .channel import (
    PowerDelayProfile,
    cfr,
    coherence_bandwidth,
    doppler_frequency,
    preset_profile,
    r_f,
    r_t,
    realize,
    sfn_profile,
)
from .phy import (
    FrameGrid,
    assemble,
    equalize,
    ofdm_demodulate,
    ofdm_modulate,
    ola,
    propagate,
    remove_pn,
)
from .pn_estimator import (
    CfrEstimate,
    analytic_mse_pn,
    cir_from_cfr,
    interference_power,
    ls_pn,
    mean_interference_power,
    window_leak_variance,
)
from .soft_rebuild import (
    InstantEstimate,
    demap,
    instantaneous_estimate,
    soft_symbols,
)
from .refiners import (
    ConstraintError,
    build_wiener,
    ma_1d,
    ma_2d,
    time_wiener,
    wiener_1d,
    wiener_2x1d,
)
from .combiner import IterationDiag, combine, iterate
from .harness import (
    CSV_HEADER,
    ConfigError,
    ResultRow,
    SimConfig,
    resolve_config,
    run,
    run_trial,
    sidecar_path,
    write_csv,
)
