"""Toolkit for quantifying and mitigating the cost of impatience in
repeated real-time-bidding auctions."""

__version__ = "0.1.0"

from .distributions import Distribution
from .domain import (
    DEFAULT_BUCKETS,
    ClusterRow,
    IndependenceViolationError,
    LogFormatError,
    PolicyOutcome,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    assign_cluster,
    assign_clusters,
    read_log,
    write_log,
)
from .estimators import (
    BootstrapResult,
    MarginalRoi,
    UserSubset,
    bootstrap_ci,
    cluster_estimates,
    exact_weight,
    exact_weight_std_analytic,
    ips_estimate,
    linear_weight,
    marginal_estimate,
    marginal_roi,
    policy_delta_bootstrap,
    weight_std_profile,
)
from .optimizer import (
    PolicyDelta,
    ReallocationProblem,
    SolveResult,
    predict_policy_delta,
    solve_reallocation_detailed,
)
from .predictor import (
    CalibrationRow,
    ConvergenceError,
    CtrModel,
    DisplayEvents,
    calibration_curve,
    events_from_trace,
    fit_ctr,
    loglik_gradient,
    penalized_loglik,
)
from .simulator import (
    BidPolicy,
    SimConfig,
    TwoAuctionResult,
    default_config,
    default_randomization,
    oracle_cluster_outcomes,
    oracle_policy_outcome,
    simulate_display_trace,
    simulate_log,
    two_auction_demo,
)
