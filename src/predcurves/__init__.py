"""Jackknife-plus conformal prediction with predictive distributions and curves.

Core pieces:

* :mod:`predcurves.conformal` -- intervals and curves from scores, and the leave-one-out ensemble
* :mod:`predcurves.closed_form` -- the exact scores of least-squares learners
* :mod:`predcurves.learners` / :mod:`predcurves.mlp` -- learners that score their own folds
* :mod:`predcurves.scenarios` / :mod:`predcurves.studies` -- seeded Monte Carlo studies
* :mod:`predcurves.gaussian_toy` -- analytic Gaussian reference curves
* :mod:`predcurves.cli` -- command-line front end
"""

from .closed_form import (
    ClosedFormScores,
    HomeostasisReport,
    closed_form_scores,
    homeostasis_report,
    width_ordering_trial,
)
from .conformal import (
    Dataset,
    LooEnsemble,
    build_loo_ensemble,
    curve_grid,
    interval_from_scores,
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
from .learners import FeatureMap, FixedRuleLearner, OlsLearner
from .linalg import least_squares
from .mlp import (
    OPT_MSE,
    SINGLE_RESTART,
    MlpArchitecture,
    MlpLearner,
    MlpModel,
    TrainerConfig,
)
from .quantiles import order_stat_index
from .rng import RngStream
from .sampling import sample_mvn, sample_noncentral_t
from .scenarios import LinearScenario, NnScenario, ar_covariance, draw_dataset
from .studies import (
    LearnerSpec,
    MonteCarloReport,
    canonicalize_mlp,
    export_curves,
    linear_learner_specs,
    nn_learner_specs,
    run_param_mse_study,
    run_studies,
    run_table_linear,
    run_table_nn,
)

__version__ = "0.1.0"
