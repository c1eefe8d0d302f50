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
)
from .learner import LearnConfig, draw_training_set, drerm
from .loss import (
    SampleSet,
    TaskInstance,
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
)
from .seeding import stream

__version__ = "0.1.0"
