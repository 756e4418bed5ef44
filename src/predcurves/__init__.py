"""Jackknife-plus conformal prediction with predictive distributions and curves.

Core pieces:

* :mod:`predcurves.conformal` -- the model-agnostic leave-one-out engine
* :mod:`predcurves.closed_form` -- the exact fast path for least-squares learners
* :mod:`predcurves.learners` / :mod:`predcurves.mlp` -- pluggable learning models
* :mod:`predcurves.scenarios` / :mod:`predcurves.studies` -- seeded Monte Carlo studies
* :mod:`predcurves.gaussian_toy` -- analytic Gaussian reference curves
* :mod:`predcurves.cli` -- command-line front end
"""

from .closed_form import (
    ClosedFormScores,
    HomeostasisReport,
    closed_form_scores,
    homeostasis_report,
    interval_width,
    width_ordering_trial,
)
from .conformal import (
    Dataset,
    LooEnsemble,
    PredictiveResult,
    build_loo_ensemble,
    conformal_scores,
    curve_grid,
    interval_from_scores,
    median_point_prediction,
    predictive_cdf,
    predictive_curve,
)
from .gaussian_toy import (
    GaussianToySample,
    confidence_cdf,
    confidence_curve,
    predictive_cdf_toy,
    predictive_curve_toy,
)
from .learners import (
    FeatureMap,
    FixedRuleLearner,
    OlsLearner,
    adversarial_learner,
    zero_learner,
)
from .linalg import least_squares
from .mlp import (
    OPT_MSE,
    SINGLE_RESTART,
    MlpArchitecture,
    MlpLearner,
    MlpModel,
    TrainerConfig,
    canonicalize_mlp,
    mlp_forward,
    mlp_gradient,
)
from .quantiles import order_stat_index, order_stat_quantile
from .rng import RngStream
from .sampling import sample_mvn, sample_noncentral_t
from .scenarios import LinearScenario, NnScenario, ar_covariance, gen_linear, gen_nn
from .studies import (
    LearnerSpec,
    MonteCarloReport,
    ParamMseTable,
    export_curves,
    linear_learner_specs,
    nn_learner_specs,
    run_coverage_study,
    run_param_mse_study,
    run_table_linear,
    run_table_nn,
)

__version__ = "0.1.0"
