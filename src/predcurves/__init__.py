"""Jackknife-plus conformal prediction with predictive distributions and curves.

Core pieces:

* :mod:`predcurves.conformal` -- intervals and curves from scores, and the leave-one-out ensemble
* :mod:`predcurves.closed_form` -- the exact scores of least-squares learners, and those learners
* :mod:`predcurves.mlp` -- the network learner, which scores its own folds
* :mod:`predcurves.scenarios` / :mod:`predcurves.studies` -- seeded Monte Carlo studies
* :mod:`predcurves.gaussian_toy` -- analytic Gaussian reference curves
* :mod:`predcurves.cli` -- command-line front end
"""
