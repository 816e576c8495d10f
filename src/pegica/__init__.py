"""Blind source separation for noisy linear mixtures.

Recovers the mixing matrix with a pseudo-Euclidean fixed-point gradient
iteration over fourth-order cumulants (robust to additive Gaussian noise
of any covariance, real or complex signals) and builds SINR-optimal
demixers from the recovered column directions.  Includes a seeded
simulation and benchmark harness.
"""

from .benchmark import BenchmarkRow, RunConfig, run_benchmark
from .cumulants import (
    CumulantOracle,
    PseudoMetric,
    SampleSet,
    build_C,
    center,
)
from .demix import (
    DemixMatrix,
    analytic_cov,
    match_columns,
    optimal_sinr,
    pinv_demix,
    sample_cov,
    sinr_k,
    sinr_loss,
    sinr_optimal_demix,
)
from .recovery import (
    ConvergenceTrace,
    IterationConfig,
    MixingEstimate,
    converged_up_to_phase,
    deflate,
    pegi_full,
    pegi_update,
    recover_column,
    recover_row_pinv,
)
from .simulate import (
    DrawBatch,
    GroundTruthModel,
    SourceSpec,
    default_source_panel,
    draw_batch,
    finite_kurtosis_panel,
    make_model,
    noise_cov,
    random_mixing,
    source_spec,
    stream,
)

__version__ = "0.1.0"
