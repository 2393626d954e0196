"""Failure detectors: Sigma, Omega, gamma, 1^P, perfect P, restriction,
conjunction, the candidate mu (§3), and a property-validation harness."""

from repro.detectors.base import BOTTOM, FailureDetector, OracleDetector
from repro.detectors.comparison import (
    GammaFromIndicators,
    distinguishing_scenario_gamma_vs_indicator,
    gamma_histories_agree,
)
from repro.detectors.cyclicity import GammaOracle, gamma_groups
from repro.detectors.indicator import IndicatorOracle
from repro.detectors.leader import OmegaOracle
from repro.detectors.mu import Mu
from repro.detectors.perfect import PerfectOracle
from repro.detectors.quorum import SigmaOracle
from repro.detectors.restriction import Conjunction, Restricted
from repro.detectors.validation import (
    check_gamma,
    check_indicator,
    check_omega,
    check_perfect,
    check_sigma,
)

__all__ = [
    "BOTTOM",
    "FailureDetector",
    "OracleDetector",
    "GammaFromIndicators",
    "distinguishing_scenario_gamma_vs_indicator",
    "gamma_histories_agree",
    "GammaOracle",
    "gamma_groups",
    "IndicatorOracle",
    "OmegaOracle",
    "Mu",
    "PerfectOracle",
    "SigmaOracle",
    "Conjunction",
    "Restricted",
    "check_gamma",
    "check_indicator",
    "check_omega",
    "check_perfect",
    "check_sigma",
]
