"""Reverse-diffusion simulation with exact score oracles and verification metrics.

The package is organized around five capabilities:

* ``schedule``: forward-process noise scales and the uniform-then-geometric
  reverse time grid.
* ``measures``: data laws (point masses, clouds, Gaussians, products,
  synthetic manifolds) with exact posterior means, scores and forward
  sampling.
* ``sampler``: the per-scheme step table for the corrected reverse
  discretization and an exponential integrator baseline, the first-order
  corrected score and a fine-step integration oracle for the underlying
  continuous dynamics.
* ``metrics``: exact KL for affine-Gaussian runs, Monte Carlo error
  functionals and martingale-structure checks.
* ``harness``: presets, config files and the ``revdiff`` CLI
  (``python -m revdiff``).

The package namespace re-exports the names the demos use; everything else
lives in its submodule.
"""

from .schedule import build_schedule, noise_scales, schedule_to_text, validate_schedule
from .measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    ProductOracle,
    forward_sample,
    log_marginal_gradient,
    make_manifold_cloud,
    random_frame,
)
from ._pool import spawn_rng
from .sampler import ReverseRunConfig, run_reverse, step_table
from .metrics import (
    concentration_curve,
    discretization_error_meter,
    gaussian_kl,
    kl_experiment,
    marginal_law,
    martingale_checks,
    monotonicity_check,
)

__version__ = "0.1.0"
