"""Placement planning for a reflecting panel in a wideband mmWave MIMO cell.

The package covers the full pipeline: polar cell geometry and panel coverage,
wideband Rician channel synthesis, zero-forcing / regularised precoding with
Monte-Carlo and closed-form average rates, placement optimizers (coordinate
descent plus exhaustive, stochastic-gradient, random and single-sample
baselines), per-realization phase-shifter optimization, and a seeded
experiment harness with a CSV contract.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    LosGeometry,
    SystemConfig,
    effective_channel,
    path_loss_bs_ris,
    path_loss_bs_user,
    path_loss_ris_user,
    precompute_los,
    reference_gain,
    sample_channel_realization,
    sample_effective_channel,
    spatial_direction,
    steering_ula,
    steering_upa,
    subcarrier_frequencies,
)
from .deployment import (
    DeploymentResult,
    OptimizerSettings,
    UserDistribution,
    exhaustive_deploy,
    heuristic_deploy,
    one_sample_deploy,
    optimize_azimuth,
    optimize_height,
    optimize_orientation,
    optimize_radial_distance,
    random_deploy,
    sgd_deploy,
)
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    GridTooLarge,
    IndexOutOfRange,
    IoError,
    NumericalFault,
    ObjectiveBoundExceeded,
    ParseError,
    RisPlanError,
    SingularChannel,
    ValidationError,
)
from .geometry import (
    CellGeometry,
    LinkAngles,
    RisPose,
    UserLocation,
    coverage_indicator,
    link_angles,
)
from .harness import (
    ExperimentSpec,
    ResultRow,
    emit_config,
    emit_csv,
    parse_config,
    rows_from_csv,
    run_experiment,
    scaled_config,
    scaled_ris_config,
)
from .phase import (
    PhaseOptResult,
    optimize_phases,
    quantize_phases,
    sum_rate_for_phases,
    update_auxiliary,
    update_phases,
)
from .rate import (
    ClosedFormContext,
    RateSummary,
    approx_rate,
    build_closed_form_context,
    covariance_entry,
    covariance_matrix,
    empirical_covariance_diagonal,
    instantaneous_user_rate,
    lower_bound_rate,
    mmse_closed_form_rate,
    mmse_precoder,
    monte_carlo_sum_rate,
    sigma_hat_inv_entry,
    zf_precoder,
)
