"""drloss: worst-case-over-distributions loss, exact ERM, covers, and derandomization.

The library half (perturb, hypo, loss, learner, derand) gives exact
brute-force oracles on finite tasks; the harness half (xprun, cli) runs
seeded statistical experiments that check the generalization and
derandomization guarantees at desk scale.
"""

from .derand import (
    AttackTask,
    DerandCertifier,
    DerandClassifier,
    RandomizedCertifier,
    RandomizedClassifier,
    derandomize_certifier,
    derandomize_classifier,
    epsilon_eta,
    evaluate_cert_band,
    evaluate_derand_dr,
    required_trials,
    smoothed_classifier,
)
from .hypo import (
    AxisRect,
    AxisRectClass,
    Behavior,
    FiniteClass,
    Interval,
    IntervalClass,
    TableHypothesis,
    Threshold,
    ThresholdClass,
    enumerate_behaviors,
    sauer_bound,
)
from .learner import LearnConfig, LearnResult, draw_training_set, drerm, learn
from .loss import (
    SampleSet,
    TaskInstance,
    adversarial_point_loss,
    empirical_dr_loss,
    population_dr_loss_exact,
    population_dr_loss_mc,
)
from .perturb import (
    DistributionError,
    DistributionFamily,
    FiniteDistribution,
    GaussianDistribution,
    build_representative_cover,
    gaussian_shift_tv,
    sample,
    tv_distance,
    verify_pointwise_cover,
)
from .seeding import stream

__version__ = "0.1.0"
