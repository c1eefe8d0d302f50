"""Guarantee-checking suites: seeded trial sweeps with exact oracles.

Each suite turns one guarantee into a violation frequency over many seeded
trials and checks it against its probability budget with explicit slack.
A suite is one row of ``SUITES``: a setup, a chunk function that runs the
trials of one work unit and a per-grid aggregate.  ``run_suite`` checks the
config against ``config.SCHEMA`` and drives every row the same way; setups
and chunks read the checked values.  Each work unit derives its own random
streams from its address, so every row, aggregate and assertion is the same
whatever the worker count; only the config echo, which carries ``jobs``,
differs.

Zero loss is exact: a sampled training loss is zero when its mistake count
W is 0; under ``exact_inner`` and in the realizable check, when the
worst-member error, a sum of nonnegative probabilities, is exactly 0 at
every drawn atom or atom of positive mass (a weighted mean can underflow).
Population losses against levels and double-sampling's S' event stay float
comparisons: the engine's losses are not correctly rounded (ROADMAP D5).
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .. import seeding
from ..derand import encode_seeds, epsilon_eta, required_trials
from ..hypo import ThresholdClass
from ..learner import draw_training_set, drerm
from ..loss import block_trials, member_error
from ..perturb import (  # noqa: F401  sample: perfbench/tracer.py patches suites.sample
    FiniteDistribution,
    GaussianDistribution,
    categorical,
    gaussian_shift_tv,
    pointwise_cover_violation,
    sample,
    tv_distance,
    word_cuts,
    word_index,
    word_sum,
    word_tally,
)
from ..stats import (
    Assertion,
    freq_at_most,
    freq_within_three_sigma,
    wilson_interval,
)
from ..tasks import (
    build_task,
    derand_certifier_setup,
    derand_classifier_setup,
    with_constructed_cover,
)
from .config import ConfigError, ExperimentConfig, build_hypothesis, build_hypothesis_class, check
from .indexed import FiniteView
from .report import ExperimentReport, table_from_rows

CHUNK = 256
SEED_DUMP_LIMIT = 100_000  # max trials * t for verbatim hex seed dumps
VOTE_WORDS_MAX = 1 << 24  # max derand votes t: a trial's raw words, 128 MiB


class Tally(NamedTuple):
    """A grid point's violation count, checked by ``test`` where the entry asserts."""

    test: Callable      # freq_at_most or freq_within_three_sigma
    name: str
    freq_key: str       # aggregate column of the observed frequency
    count: int
    bound: float


# ---------------------------------------------------------------------------
# ERM-style suites: realizable / agnostic / model1 / model2, and the
# double-sampling lemma, which shares their setup


def _finite_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    """Task, view, full-domain behaviors and their exact losses, and each grid entry's level.

    ``train_worst`` is the training view's (B, atoms) worst-member errors,
    the table the ``exact_inner`` chunks gather from.
    """
    task = build_task(cfg.task)
    hclass = build_hypothesis_class(cfg.hypothesis_class)
    model = cfg.kind in ("model1", "model2")
    train_view = "rep" if model else "true"
    if model:
        if cfg.params["cover_k"]:
            task = with_constructed_cover(task, cfg.params["cover_k"])
        for x, _, _ in task.atoms():
            if task.family_of[x].rep_set is None:
                raise ConfigError(f"{cfg.kind} requires representative sets; x={x!r} has none")
    view = FiniteView(task, views=("true", "rep") if model else ("true",))
    labels, witnesses = view.behaviors(hclass)
    # each view's (B, atoms) worst-member errors, once per run
    worst = {v: view.worst_member(labels, v) for v in view.views}
    dr_true = worst["true"] @ view.atom_p  # as dr_exact sums it

    if cfg.kind == "realizable":
        best = float(worst["true"][:, view.atom_p > 0].max(axis=1).min())
        if best > 0:
            raise ConfigError(
                f"task is not realizable: each of the {len(labels)} behaviors has a worst-member "
                f"error at an atom of positive mass of at least {best:.6g} > 0"
            )
    if cfg.kind == "model2":
        for x, _, _ in task.atoms():
            fam = task.family_of[x]
            for ui, u in enumerate(fam.true_set):
                bad = pointwise_cover_violation(u, fam.rep_set)
                if bad is not None:
                    z, pu, pr = bad
                    raise ConfigError(
                        f"pointwise cover violated at x={x!r}, member {ui}, "
                        f"point {z!r}: {pu:.6g} > {pr:.6g}"
                    )

    # the level a zero-training-loss behavior must not reach: epsilon, plus
    # the TV cover radius eps_prime (model1), or times the family cap k (model2)
    epsilons = [entry["epsilon"] for entry in cfg.grid]
    eps_prime = float("nan")
    if cfg.kind == "model1":
        eps_prime = max([0.0] + [min(tv_distance(u, r) for r in task.family_of[x].rep_set)
                                 for x, _, _ in task.atoms()
                                 for u in task.family_of[x].true_set])
        levels = [eps + eps_prime for eps in epsilons]
    elif cfg.kind == "model2":
        k = max(task.family_of[x].k for x, _, _ in task.atoms())
        levels = [k * eps for eps in epsilons]
    else:
        levels = epsilons
    return SimpleNamespace(hclass=hclass, view=view, labels=labels, witnesses=witnesses,
                           dr_true=dr_true, train_view=train_view, train_worst=worst[train_view],
                           levels=levels, eps_prime=eps_prime,
                           k=task.max_family_size(train_view))


def _erm_chunk(cfg: ExperimentConfig, s, g: int, chunk: int, lo: int, hi: int) -> dict:
    entry = cfg.grid[g]
    n, m, epsilon, exact_inner = entry["n"], entry["m"], entry["epsilon"], entry["exact_inner"]
    level = s.levels[g]
    trials = hi - lo
    view = s.view
    rng = seeding.stream(cfg.master_seed, g, chunk)
    slots = view.draw_clean_slots(rng, trials * n)
    if exact_inner:
        # m -> infinity: the setup's exact worst-member errors at the drawn
        # slots, gathered a block of trials at a time as dr_scores sizes its
        # blocks; ERM over the full-domain behaviors
        n_b = len(s.labels)
        dr_s = np.empty((n_b, trials))
        zero_train = np.empty((n_b, trials), bool)
        block = block_trials(n, n_b * n * s.train_worst.itemsize)
        # a slot's gather copies one row of the (atoms, B) table; its transpose
        # is column-ordered (B, slots), as train_worst[:, slots] is, so each
        # mean adds the same terms in the same order
        table = np.ascontiguousarray(s.train_worst.T)
        for t0 in range(0, trials, block):
            t1 = min(t0 + block, trials)
            worst = table[slots[t0 * n:t1 * n]].T.reshape(n_b, -1, n)
            dr_s[:, t0:t1] = worst.mean(axis=2)
            zero_train[:, t0:t1] = ~worst.any(axis=2)
            del worst  # freed before the next block is gathered
        best = dr_s.argmin(axis=0)
        loss_emp = dr_s[best, np.arange(trials)]
        erm_zero = zero_train[best, np.arange(trials)]
        loss_pop = s.dr_true[best]
        picks, inverse = np.unique(best, return_inverse=True)
        hypotheses = [s.witnesses[b] for b in picks]
    else:
        rows = view.draw_slot_counts(rng, slots, m, s.train_view)
        scores = view.dr_s(s.labels, slots, rows, trials, n, m, True, cfg.kind == "agnostic")
        dr_s, zero_train = scores.dr, scores.hits == 0
        erm_zero = zero_train.any(axis=0)  # the minimizers' W is the trial's least
        seen = view.seen_points(slots, rows, trials, n)
        loss_emp = scores.loss_emp.copy()
        # a trial's witness is fixed by the behaviors at its minimum and the
        # points it saw, so ERM runs once per distinct (tie set, seen set)
        keys = np.hstack([np.packbits(scores.ties, axis=0).T, np.packbits(seen, axis=1)])
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        hypotheses = [view.erm_on_sample(s.hclass, s.labels, s.witnesses, scores.ties[:, t],
                                         seen[t]) for t in first]
        loss_pop_of = {h: float(view.dr_exact(view.labels_of(h), "true")[0])
                       for h in set(hypotheses)}
        loss_pop = np.array([loss_pop_of[h] for h in hypotheses])[inverse]

    cols = {"grid_index": np.full(trials, g), "trial": np.arange(lo, hi),
            "n": np.full(trials, n), "m": np.full(trials, m), "k": np.full(trials, s.k),
            "epsilon": np.full(trials, epsilon), "delta": np.full(trials, entry["delta"])}
    if cfg.kind == "model1":
        cols["eps_prime"] = np.full(trials, s.eps_prime)
    if cfg.kind in ("model1", "model2"):
        cols["bound"] = np.full(trials, level)
    cols.update(loss_emp=loss_emp, loss_pop=loss_pop, gap=np.abs(loss_emp - loss_pop))
    if cfg.kind == "agnostic":
        max_gap = np.abs(dr_s - s.dr_true[:, None]).max(axis=0)
        cols.update(max_gap=max_gap, viol=max_gap > epsilon)
    else:
        cols.update(viol_erm=erm_zero & (loss_pop >= level),
                    viol_any=np.any(zero_train & (s.dr_true >= level)[:, None], axis=0))
    cells = [h.to_json() for h in hypotheses]
    cols["hypothesis"] = [cells[i] for i in inverse.tolist()]
    return cols


def _erm_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: dict) -> tuple:
    viol_key = "viol" if cfg.kind == "agnostic" else "viol_erm"
    delta = cfg.grid[g]["delta"]
    trials = len(rows["gap"])
    agg = {
        "n": entry["n"],
        "m": entry["m"],
        "epsilon": entry["epsilon"],
        "delta": delta,
        "median_gap": float(np.median(rows["gap"])),
    }
    if cfg.kind != "agnostic":
        agg["viol_any_freq"] = int(np.count_nonzero(rows["viol_any"])) / trials
    if cfg.kind in ("model1", "model2"):
        agg["bound"] = s.levels[g]
    return agg, [Tally(freq_at_most, f"{cfg.kind} violation freq (grid {g})",
                       f"{viol_key}_freq", int(np.count_nonzero(rows[viol_key])), delta)]


def _batch_dr_s(s, rng, draws: int, n: int, m: int, dr: bool = False):
    """``dr_s`` of every behavior on ``draws`` fresh training sets, without ERM (view scratch)."""
    slots = s.view.draw_clean_slots(rng, draws * n)
    rows = s.view.draw_slot_counts(rng, slots, m, "true")
    return s.view.dr_s(s.labels, slots, rows, draws, n, m, False, dr)


def _double_chunk(cfg: ExperimentConfig, s, g: int, _chunk: int, lo: int, hi: int) -> dict:
    """Paired-draw estimate of Pr(B) >= (2/5) Pr(A), one row per master-seed trial."""
    entry = cfg.grid[g]
    n, m, epsilon = entry["n"], entry["m"], entry["epsilon"]
    draws = cfg.params["draws"]
    rows = []
    for trial in range(lo, hi):
        rng = seeding.stream(cfg.master_seed, g, trial)
        # S's losses live in the view's scratch, which scoring S' overwrites
        zero = _batch_dr_s(s, rng, draws, n, m).hits == 0
        event_a = np.any(zero & (s.dr_true[:, None] >= epsilon), axis=0)
        event_b = np.any(zero & (_batch_dr_s(s, rng, draws, n, m, True).dr >= epsilon / 2), axis=0)
        d = event_b.astype(float) - 0.4 * event_a.astype(float)
        mean_d = float(d.mean())
        se_d = float(d.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
        pr_a = float(event_a.mean())
        rows.append({
            "grid_index": g,
            "trial": trial,
            "n": n,
            "m": m,
            "epsilon": epsilon,
            "draws": draws,
            "pr_a": pr_a,
            "pr_b": float(event_b.mean()),
            "mean_d": mean_d,
            "se_d": se_d,
            "vacuous": pr_a == 0.0,
            "passed": pr_a == 0.0 or mean_d >= -3.0 * se_d,
        })
    return table_from_rows(rows)


def _double_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: dict) -> tuple:
    trials = len(rows["trial"])
    agg = {
        "n": entry["n"],
        "m": entry["m"],
        "epsilon": entry["epsilon"],
        # Python's left-to-right sums, as the report has always used
        "mean_pr_a": sum(rows["pr_a"].tolist()) / trials,
        "mean_pr_b": sum(rows["pr_b"].tolist()) / trials,
        "min_margin": float((rows["mean_d"] + 3 * rows["se_d"]).min()),
        "vacuous_trials": int(np.count_nonzero(rows["vacuous"])),
    }
    return agg, [Assertion(name=f"double-sampling grid {g} trial {trial}",
                           observed=mean_d,
                           bound=-3.0 * se_d,
                           slack_rule="mean(1_B - (2/5) 1_A) >= -3 se",
                           passed=passed)
                 for trial, mean_d, se_d, passed, vacuous in zip(
                     rows["trial"].tolist(), rows["mean_d"].tolist(), rows["se_d"].tolist(),
                     rows["passed"].tolist(), rows["vacuous"].tolist())
                 if not vacuous]


# ---------------------------------------------------------------------------
# Concentration suite
#
# Inner: Pr[|mean - p| >= eps/8] against 2 exp(-m eps^2 / 32).
# Outer: Pr[|avg worst-member loss - E| >= eps/4] against 2 exp(-n eps^2 / 8).


def _binom_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf from exact integer coefficients; logs past float range."""
    pmf = []
    for i in range(m + 1):
        c = math.comb(m, i)
        try:
            pmf.append(c * (p ** i) * ((1 - p) ** (m - i)))
        except OverflowError:  # so 0 < i < m, where p in {0, 1} puts no mass
            pmf.append(0.0 if p in (0, 1) else
                       math.exp(math.log(c) + i * math.log(p) + (m - i) * math.log1p(-p)))
    return np.array(pmf)


def _exact_mean_worst(m: int, probs: list) -> float:
    """E[max_j Binomial(m, p_j)] / m for independent batches, by enumeration."""
    if len(probs) == 1:
        return probs[0]
    if len(probs) == 2:
        pmf_a = _binom_pmf(m, probs[0])
        pmf_b = _binom_pmf(m, probs[1])
        grid = np.maximum.outer(np.arange(m + 1), np.arange(m + 1))
        return float(pmf_a @ grid @ pmf_b) / m
    # past two members: the sum over t = 1..m of P(max >= t) = 1 - prod_j F_j(t - 1)
    cdfs = np.cumsum([_binom_pmf(m, p) for p in probs], axis=1)
    return float(np.sum(1.0 - np.prod(cdfs[:, :-1], axis=0))) / m


def _hoeffding_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    """Exact mistake levels of the fixed hypothesis, for the targets the grid uses."""
    h = build_hypothesis(cfg.params["hypothesis"])
    # tails, per grid entry: (deviation threshold, tail bound)
    s = SimpleNamespace(tails=[])
    for entry in cfg.grid:
        eps = entry["epsilon"]
        try:
            square = eps ** 2
        except OverflowError:
            raise ConfigError(f"hoeffding's epsilon {eps!r} is too large to square") from None
        if entry["target"] == "inner":
            s.tails.append((eps / 8.0, min(1.0, 2.0 * math.exp(-entry["m"] * square / 32.0))))
        else:
            s.tails.append((eps / 4.0, min(1.0, 2.0 * math.exp(-entry["n"] * square / 8.0))))
    targets = {entry["target"] for entry in cfg.grid}
    if "inner" in targets:
        task = build_task(cfg.params["inner_task"])
        atoms = task.atoms()
        x, y, _ = atoms[0]
        members = task.members_for(x, "true")
        if len(atoms) != 1 or len(members) != 1:
            raise ConfigError(f"hoeffding's inner_task needs exactly one atom with exactly one "
                              f"true member; it has {len(atoms)} atom(s), and x={x!r} has "
                              f"{len(members)} true member(s)")
        u = members[0]
        if not isinstance(u, FiniteDistribution):
            raise ConfigError(f"hoeffding's inner_task needs a finite member; x={x!r} has {u!r}")
        s.inner_probs = u.prob_array()
        s.inner_p = member_error(h, u, y)
        s.inner_mist = np.array([1.0 if h.predict(z) != y else 0.0 for z in u.support])
    if "outer" in targets:
        s.view = view = FiniteView(build_task(cfg.params["outer_task"]), views=("true",))
        members = [view.task.members_for(x, "true") for x in view.atom_x]
        s.p_members = np.zeros((view.n_atoms, view.max_k["true"]))
        for a, us in enumerate(members):
            for j, u in enumerate(us):
                s.p_members[a, j] = member_error(h, u, view.atom_y[a])
        s.expected = math.fsum(
            view.atom_p[a] * _exact_mean_worst(cfg.params["outer_m"], list(s.p_members[a, :len(us)]))
            for a, us in enumerate(members)
        )
        # Binomial(m, p) / m is p when p is 0 or 1: a slot's worst loss is then
        # its atom's 0 or 1, so a trial sums the atoms' badness over the raw
        # words ``categorical`` would draw its slots from
        zero_one = np.all((s.p_members == 0) | (s.p_members == 1))
        s.tally = word_tally(view.atom_p, s.p_members.max(axis=1)) if zero_one else None
    return s


def _hoeffding_chunk(cfg: ExperimentConfig, s, g: int, chunk: int, lo: int, hi: int) -> dict:
    entry = cfg.grid[g]
    target, epsilon = entry["target"], entry["epsilon"]
    threshold = s.tails[g][0]
    trials = hi - lo
    rng = seeding.stream(cfg.master_seed, g, chunk)
    if target == "inner":
        n_col, m = [""] * trials, entry["m"]
        counts = rng.multinomial(m, s.inner_probs, size=trials)
        devs = np.abs(counts @ s.inner_mist / m - s.inner_p)
    else:
        n, m = entry["n"], cfg.params["outer_m"]
        n_col = np.full(trials, n)
        if s.tally is not None:
            # the words ``categorical`` would turn into slots; the member
            # draws would be the stream's last reads.  The count over n is
            # the mean of the slots' 0/1 losses, bit for bit
            mean = word_sum(s.tally, rng.bit_generator.random_raw((trials, n)), axis=1) / n
        else:
            slots = categorical(s.view.atom_p, (trials, n), rng)
            worst = np.zeros((trials, n))
            for j in range(s.p_members.shape[1]):
                np.maximum(worst, rng.binomial(m, s.p_members[:, j][slots]) / m, out=worst)
            mean = worst.mean(axis=1)
        devs = np.abs(mean - s.expected)
    return {
        "grid_index": np.full(trials, g),
        "trial": np.arange(lo, hi),
        "target": [target] * trials,
        "n": n_col,
        "m": np.full(trials, m),
        "epsilon": np.full(trials, epsilon),
        "deviation": devs,
        "exceeded": devs >= threshold,
    }


def _hoeffding_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: dict) -> tuple:
    threshold, bound = s.tails[g]
    agg = {
        "target": entry["target"],
        "n": entry.get("n", ""),
        "m": entry.get("m", cfg.params["outer_m"]),
        "epsilon": cfg.grid[g]["epsilon"],
        "threshold": threshold,
        "bound": bound,
    }
    return agg, [Tally(freq_within_three_sigma, f"hoeffding {entry['target']} tail (grid {g})",
                       "exceed_freq", int(np.count_nonzero(rows["exceeded"])), bound)]


# ---------------------------------------------------------------------------
# Derandomization suites: plurality-vote DR must stay under delta + eps(eta);
# the median radius's out-of-band mass must stay under eps(eta) + delta


def _derand_grid(cfg: ExperimentConfig, task, point_errors: dict) -> list:
    """Per grid entry: eta, delta, vote count, eps(eta) and the exceed threshold."""
    out = []
    for g, entry in enumerate(cfg.grid):
        eta, delta = entry["eta"], entry["delta"]
        t_votes = entry["t"] or required_trials(eta, task.max_attack_size(), delta)
        if t_votes > VOTE_WORDS_MAX:  # a trial reads its t words at once
            raise ConfigError(f"grid[{g}] asks for t = {t_votes:.17g} votes, {8 * t_votes:.17g} "
                              f"bytes of raw words per trial, past {VOTE_WORDS_MAX} words")
        eps_eta = epsilon_eta(task, point_errors, eta)
        out.append(SimpleNamespace(eta=eta, delta=delta, t_votes=t_votes, eps_eta=eps_eta,
                                   threshold=delta + eps_eta))
    return out


def _votes(randomness: FiniteDistribution, levels: list) -> SimpleNamespace:
    """The support, its word cuts and, per level, the ``word_tally`` of the points below it."""
    support = np.asarray(randomness.support)
    p = randomness.prob_array()
    return SimpleNamespace(support=support, draw_cuts=word_cuts(p),
                           tallies=[word_tally(p, support < level) for level in levels])


def _draws(votes: SimpleNamespace, words: np.ndarray) -> np.ndarray:
    """The support points ``categorical`` draws from these raw words, sorted."""
    return np.sort(votes.support[word_index(votes.draw_cuts, words)])


def _classifier_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    params = cfg.params
    setup = derand_classifier_setup(p_err=params["p_err"], a_size=params["a_size"],
                                    grid=params["grid_randomness"],
                                    p_err_high=params["p_err_high"])
    task = setup.attack_task
    atoms = task.atoms()
    # an atom's attack point of highest per-draw error level gets every draw
    # below another point's level wrong too, so it is the first one fooled
    levels = [max(setup.errors[xp] for xp in task.attacks[x]) for x, _, _ in atoms]
    votes = _votes(setup.base.randomness, levels)
    # its exact per-draw error: fsum rounds correctly, so over these nested
    # prefixes of the ascending support it is also the largest of its points' errors
    probs, under = setup.base.randomness.probs, votes.support.searchsorted(levels).tolist()
    errors = {(x, y): math.fsum(probs[:j]) for (x, y, _), j in zip(atoms, under)}

    def dr_value(below: list, t_votes: int) -> float:
        """Mass of the atoms whose worst attack point the plurality of the draws gets wrong."""
        # a draw below the level votes wrong; a tied vote goes to -1
        return sum((p for (_, y, p), n in zip(atoms, below)
                    if 2 * n > t_votes or (y == 1 and 2 * n == t_votes)), 0.0)

    return SimpleNamespace(derand=setup, grid=_derand_grid(cfg, task, errors), votes=votes,
                           value_key="dr_value", value=dr_value)


def _certifier_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    params = cfg.params
    setup = derand_certifier_setup(q_in=params["q_in"], a_size=params["a_size"],
                                   grid=params["grid_randomness"], alpha=params["alpha"],
                                   beta=params["beta"])
    task = setup.attack_task
    atoms = task.atoms()
    # every attack point's radius leaves the band exactly for a draw below 1 - q_in
    out_level = 1.0 - setup.q_in

    def band_value(below: list, t_votes: int) -> float:
        """Mass of the atoms whose lower median radius leaves the band."""
        # it is in band iff in-band draws fill positions 0..(t-1)//2
        return sum((p for (_, _, p), n in zip(atoms, below)
                    if t_votes - n <= (t_votes - 1) // 2), 0.0)

    gamma = {(x, y): out_level for x, y, _ in atoms}
    return SimpleNamespace(derand=setup, grid=_derand_grid(cfg, task, gamma),
                           votes=_votes(setup.certifier.randomness, [out_level] * len(atoms)),
                           value_key="band_value", value=band_value)


def _derand_chunk(cfg: ExperimentConfig, s, g: int, _chunk: int, lo: int, hi: int) -> dict:
    """One row per trial: the setup's ``value`` of each atom's count of draws below its level.

    A trial's t fixed draws are those the object-level
    ``derandomize_classifier``/``_certifier`` take from its stream; of their
    raw words only the ``word_sum`` of each of the setup's ``votes.tallies``
    decides the vote.  The draws themselves are formed, and sorted, only for
    ``seeds_hex``.
    """
    p = s.grid[g]
    dump_seeds = cfg.trials * p.t_votes <= SEED_DUMP_LIMIT
    rows = []
    for trial in range(lo, hi):
        words = seeding.stream(cfg.master_seed, g, trial).bit_generator.random_raw(p.t_votes)
        value = s.value([word_sum(tally, words) for tally in s.votes.tallies], p.t_votes)
        seeds_hex = ";".join(encode_seeds(_draws(s.votes, words).tolist())) if dump_seeds else ""
        rows.append({
            "grid_index": g,
            "trial": trial,
            "eta": p.eta,
            "delta": p.delta,
            "t_votes": p.t_votes,
            s.value_key: value,
            "threshold": p.threshold,
            "exceeded": bool(value > p.threshold),
            "seed_ref": f"philox[{cfg.master_seed}/{g}/{trial}]",
            "seeds_hex": seeds_hex,
        })
    return table_from_rows(rows)


def _derand_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: dict) -> tuple:
    p = s.grid[g]
    agg = {"eta": p.eta, "delta": p.delta, "t_votes": p.t_votes, "eps_eta": p.eps_eta}
    checks = [Tally(freq_at_most, f"{cfg.kind.replace('-', ' ')} exceed freq (grid {g})",
                    "exceed_freq", int(np.count_nonzero(rows["exceeded"])), p.delta)]
    if cfg.kind == "derand-certifier":
        agg["q_in"] = s.derand.q_in
        return agg, checks
    mean_error = s.derand.mean_error
    markov = 2.0 * mean_error / (1.0 - 2.0 * p.eta)
    agg.update(eps_mean=mean_error, markov_bound=markov)
    markov_check = Assertion(
        name=f"eps(eta) Markov check (grid {g})",
        observed=p.eps_eta,
        bound=markov,
        slack_rule="exact: eps(eta) <= 2 eps / (1 - 2 eta)",
        passed=p.eps_eta <= markov + 1e-12,
    )
    return agg, [markov_check] + checks


# ---------------------------------------------------------------------------
# Smoothing suite: train on each atom's one Gaussian member, then bound the
# worst-shift excess by d(delta).  The per-shift smoothed loss is evaluated
# with the exact Gaussian CDF, so the excess-vs-TV comparison carries no
# Monte Carlo noise beyond the training draw itself.


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def smoothed_threshold_error(cut: float, x: float, y: int, sigma: float) -> float:
    """Exact Gaussian-noise error of a threshold classifier at a (possibly shifted) point."""
    p_plus = 1.0 - _phi((cut - x) / sigma)
    return p_plus if y == -1 else 1.0 - p_plus


def _smoothing_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    task = build_task(cfg.task)
    hclass = build_hypothesis_class(cfg.hypothesis_class)
    if not isinstance(hclass, ThresholdClass):
        raise ConfigError("the smoothing suite's exact loss oracle covers thresholds only")
    # the oracle smooths each atom x with N(x, sigma^2): the task must train
    # on it, and its true family must be that one Gaussian too
    sigma = cfg.params["sigma"]
    for x, _, _ in task.atoms():
        if isinstance(x, tuple):
            raise ConfigError(f"smoothing needs one-dimensional atoms; x={x!r} is a tuple")
        fam = task.family_of[x]
        if fam.rep_set != (GaussianDistribution(x, sigma),) or fam.true_set != fam.rep_set:
            raise ConfigError(f"smoothing needs each atom's true and representative sets to be "
                              f"the one Gaussian centred at the atom with sigma = params.sigma = "
                              f"{sigma!r}; x={x!r} has true {fam.true_set!r}, "
                              f"representatives {fam.rep_set!r}")
    return SimpleNamespace(task=task, hclass=hclass, sigma=sigma)


def _smoothing_chunk(cfg: ExperimentConfig, s, _g: int, _chunk: int, lo: int, hi: int) -> dict:
    """Train once per trial, then evaluate that trial's cut at every grid entry."""
    sigma, shift_points = s.sigma, cfg.params["shift_points"]
    atoms = s.task.atoms()
    rows = []
    for trial in range(lo, hi):
        rng = seeding.stream(cfg.master_seed, 0, trial)
        cut = drerm(s.hclass, draw_training_set(s.task, cfg.params["n"], cfg.params["m"], rng)).t
        clean_loss = math.fsum(p * smoothed_threshold_error(cut, x, y, sigma)
                               for x, y, p in atoms)
        for g, entry in enumerate(cfg.grid):
            delta = entry["delta"]
            worst = 0.0
            for x, y, p in atoms:
                if delta == 0.0:
                    shifts = [x]
                else:
                    shifts = np.linspace(x - delta, x + delta, shift_points)
                worst += p * max(smoothed_threshold_error(cut, float(xp), y, sigma)
                                 for xp in shifts)
            d_delta = gaussian_shift_tv(delta, sigma)
            excess = worst - clean_loss
            rows.append({
                "grid_index": g,
                "trial": trial,
                "delta": delta,
                "sigma": sigma,
                "t_hat": cut,
                "clean_loss": clean_loss,
                "worst_loss": worst,
                "excess": excess,
                "d_delta": d_delta,
                "ok": bool(excess <= d_delta + cfg.params["mc_slack"]),
            })
    return table_from_rows(rows)


def _smoothing_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: dict) -> tuple:
    max_excess = max(rows["excess"].tolist())
    d_delta = rows["d_delta"][0].item()
    slack = cfg.params["mc_slack"]
    asserted = cfg.grid[g]["assert"]
    agg = {
        "delta": entry["delta"],
        "sigma": s.sigma,
        "max_excess": max_excess,
        "d_delta": d_delta,
        "slack": slack,
        "asserted": asserted,
    }
    if not asserted:
        return agg, []
    return agg, [Assertion(
        name=f"smoothing excess vs TV (delta={entry['delta']})",
        observed=max_excess,
        bound=d_delta + slack,
        slack_rule="max excess <= d(delta) + slack",
        passed=max_excess <= d_delta + slack,
    )]


# ---------------------------------------------------------------------------
# The driver


class Suite(NamedTuple):
    """One suite as data; ``run_suite`` owns everything the suites share."""

    # each takes the checked config; an aggregate also gets its grid entry as written
    setup: Callable        # cfg -> setup, built once per run_suite call per process
    chunk: Callable        # (cfg, setup, grid index, unit index, lo, hi) -> columns
    aggregate: Callable    # (cfg, setup, grid index, entry, grid columns) -> (agg, checks)
    unit: int = CHUNK      # trials per work unit
    per_grid: bool = True  # False: one unit covers every grid entry


_ERM = Suite(_finite_setup, _erm_chunk, _erm_aggregate)

SUITES = {
    "realizable": _ERM,
    "agnostic": _ERM,
    "model1": _ERM,
    "model2": _ERM,
    "double-sampling": Suite(_finite_setup, _double_chunk, _double_aggregate, unit=1),
    "hoeffding": Suite(_hoeffding_setup, _hoeffding_chunk, _hoeffding_aggregate),
    "derand-classifier": Suite(_classifier_setup, _derand_chunk, _derand_aggregate),
    "derand-certifier": Suite(_certifier_setup, _derand_chunk, _derand_aggregate),
    "smoothing": Suite(_smoothing_setup, _smoothing_chunk, _smoothing_aggregate,
                       unit=1, per_grid=False),
}


def _chunk_ranges(trials: int, size: int) -> list:
    return [(c, lo, min(lo + size, trials))
            for c, lo in enumerate(range(0, trials, size))]


def _setup(cfg: ExperimentConfig):
    """The suite's setup; a task or hypothesis the config cannot build is a config error."""
    try:
        return SUITES[cfg.kind].setup(cfg)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:  # perturb.DistributionError is a ValueError
        raise ConfigError(f"cannot build the {cfg.kind} setup: {exc}") from exc


# A pool worker's (cfg, setup), set once by the pool initializer in the
# worker process; the pool and its workers end with the run_suite call.
_worker = None


def _init_worker(cfg: ExperimentConfig) -> None:
    global _worker
    _worker = (cfg, _setup(cfg))


def _worker_chunk(g: int, c: int, lo: int, hi: int) -> dict:
    cfg, setup = _worker
    return SUITES[cfg.kind].chunk(cfg, setup, g, c, lo, hi)


def _collect(cfg: ExperimentConfig, suite: Suite, setup, jobspecs: list) -> list:
    """Each work unit's columns, in ``jobspecs`` order."""
    if cfg.jobs == 1:
        return [suite.chunk(cfg, setup, *spec) for spec in jobspecs]
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay its import

    with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_init_worker,
                             initargs=(cfg,)) as ex:
        return list(ex.map(_worker_chunk, *zip(*jobspecs)))


def _concat(parts: list):
    """One column of the run from its units' pieces.

    Arrays of one dtype concatenate; anything else becomes one list of
    Python values, so no cell changes type (an int column never becomes
    float, and hoeffding's "" and integer ``n`` cells stay as they are).
    """
    if all(isinstance(p, np.ndarray) for p in parts) and len({p.dtype for p in parts}) == 1:
        return np.concatenate(parts)
    return [v for p in parts for v in (p.tolist() if isinstance(p, np.ndarray) else p)]


def _take(col, order: np.ndarray):
    return col[order] if isinstance(col, np.ndarray) else [col[i] for i in order.tolist()]


def run_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the suite ``cfg.kind`` names and assemble its report."""
    start = time.perf_counter()
    raw = dict(vars(cfg))  # the report echoes the config as written
    cfg = check(raw)
    suite = SUITES[cfg.kind]
    setup = _setup(cfg)
    grids = range(len(cfg.grid)) if suite.per_grid else [0]
    jobspecs = [(g, c, lo, hi) for g in grids
                for c, lo, hi in _chunk_ranges(cfg.trials, suite.unit)]
    parts = _collect(cfg, suite, setup, jobspecs)
    table = {name: _concat([part[name] for part in parts]) for name in parts[0]}
    if not suite.per_grid:
        # a unit covers every grid entry; the others arrive in (grid, trial) order
        order = np.lexsort((table["trial"], table["grid_index"]))
        table = {name: _take(col, order) for name, col in table.items()}
    bounds = np.searchsorted(table["grid_index"], np.arange(len(cfg.grid) + 1)).tolist()

    aggregates = []
    assertions = []
    for g, entry in enumerate(raw["grid"]):
        lo, hi = bounds[g], bounds[g + 1]
        trials = hi - lo
        grid_rows = {name: col[lo:hi] for name, col in table.items()}
        agg, checks = suite.aggregate(cfg, setup, g, entry, grid_rows)
        grid_assertions = []
        for item in checks:
            if isinstance(item, Tally):
                lo_w, hi_w = wilson_interval(item.count, trials)
                asserted = cfg.grid[g]["assert"]
                agg.update({item.freq_key: item.count / trials, "wilson_lo": lo_w,
                            "wilson_hi": hi_w, "asserted": asserted})
                if not asserted:
                    continue
                item = item.test(item.name, item.count, trials, item.bound)
            grid_assertions.append(item)
        agg.update(grid_index=g, trials=trials,
                   passed=all(a.passed for a in grid_assertions))
        aggregates.append(agg)
        assertions += grid_assertions

    return ExperimentReport(
        kind=cfg.kind,
        config=raw,
        table=table,
        agg_columns=sorted({k for a in aggregates for k in a}),
        aggregates=aggregates,
        assertions=assertions,
        passed=all(a.passed for a in assertions),
        wall_clock_s=time.perf_counter() - start,
    )
