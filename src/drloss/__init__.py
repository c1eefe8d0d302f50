"""drloss: worst-case-over-distributions loss, exact ERM, covers, and derandomization.

The library half (perturb, hypo, loss, learner, derand) gives exact
brute-force oracles on finite tasks; the harness half (xprun, cli) runs
seeded statistical experiments that check the generalization and
derandomization guarantees at desk scale.
"""

from .hypo import Threshold, ThresholdClass
from .learner import draw_training_set, drerm
from .loss import empirical_dr_loss, population_dr_loss_exact
from .seeding import stream

__version__ = "0.1.0"
