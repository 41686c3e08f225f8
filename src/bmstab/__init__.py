"""Numerical verification of Brunn-Minkowski type inequalities for small
perturbations of Euclidean balls under rotation-invariant log-concave
measures.  BM_STABILITY_THREADS=N caps the linear-algebra thread pools
(applied here, before numpy is imported)."""

import os

_threads = os.environ.get("BM_STABILITY_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .sphere import (PolynomialSF, SphereGrid, build_grid, curvature_matrix,
                     integrate, sf_exp, sf_log, sf_mul, sf_ratio, sf_sum)
from .measures import make_measure, measure_from_spec, moments, ball_measure
from .bodies import (Body, ball_body, body_from_support, log_combine,
                     make_family, measure_of_body, minkowski_combine,
                     quermassintegrals)
from .variation import variation_at_ball
from .oracles import central_derivative, mc_measure, wulff_polygon
from .funcspecs import direction_suite, sf_from_spec
from .inequalities import CHECKS, CheckResult, rerun, run_check

__all__ = [
    "PolynomialSF", "SphereGrid", "build_grid", "curvature_matrix",
    "integrate", "sf_exp", "sf_log", "sf_mul", "sf_ratio", "sf_sum",
    "make_measure", "measure_from_spec", "moments", "ball_measure",
    "Body", "ball_body", "body_from_support", "log_combine", "make_family",
    "measure_of_body", "minkowski_combine", "quermassintegrals",
    "variation_at_ball",
    "central_derivative", "mc_measure", "wulff_polygon", "direction_suite",
    "sf_from_spec", "CHECKS", "CheckResult", "rerun", "run_check",
    "__version__",
]
