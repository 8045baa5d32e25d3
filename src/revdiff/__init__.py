"""Reverse-diffusion simulation with exact score oracles and verification metrics.

The package is organized around five capabilities:

* ``schedule``: forward-process noise scales and the uniform-then-geometric
  reverse time grid.
* ``measures``: data laws (point masses, clouds, Gaussians, products,
  synthetic manifolds) with exact posterior means, scores and forward
  sampling.
* ``sampler``: the corrected reverse discretization, an exponential
  integrator baseline, the first-order corrected score and a fine-step
  integration oracle for the underlying continuous dynamics.
* ``metrics``: exact KL for affine-Gaussian runs, Monte Carlo error
  functionals and martingale-structure checks.
* ``harness``: presets, config files and the ``revdiff`` CLI.
"""

from .schedule import (
    NoiseScales,
    TimeSchedule,
    build_schedule,
    noise_scales,
    schedule_from_text,
    schedule_to_text,
    validate_schedule,
)
from .measures import (
    GaussianLaw,
    ManifoldSpec,
    PointCloudMeasure,
    ScoreOracle,
    forward_bridge,
    forward_sample,
    gaussian_oracle,
    load_cloud,
    make_manifold_cloud,
    point_cloud_oracle,
    point_mass_oracle,
    product_oracle,
    save_cloud,
    spawn_rng,
)
from .sampler import (
    ReverseRunConfig,
    ReverseRunResult,
    ScorePerturbation,
    StepCoefficients,
    corrected_coefficients,
    corrected_score,
    corrected_step,
    ei_coefficients,
    ei_step,
    fine_integrate_step,
    fine_step_conditional_law,
    run_reverse,
    save_batch,
    save_trajectories,
)
from .metrics import (
    MetricReport,
    concentration_curve,
    discretization_error_meter,
    gaussian_kl,
    increment_quadrature,
    kl_experiment,
    marginal_law,
    martingale_checks,
    monotonicity_check,
    propagate_affine_reverse,
    score_error_budget,
)
from .harness import ExperimentConfig, build_measure, run_experiment

__version__ = "0.1.0"
