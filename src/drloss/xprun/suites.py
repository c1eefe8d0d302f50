"""Guarantee-checking suites: seeded trial sweeps with exact oracles.

Each suite turns one guarantee into a violation frequency over many seeded
trials and checks it against its probability budget with explicit slack.
A suite is one row of ``SUITES``: a setup, a chunk function that runs the
trials of one work unit, the grid keys it reads and a per-grid aggregate.
``run_suite`` drives every row the same way.  Each work unit derives its
own random streams from its address, so reports are identical regardless
of worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter
from statistics import median
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .. import seeding
from ..derand import encode_seeds, epsilon_eta, required_trials, worst_point_errors
from ..hypo import ThresholdClass
from ..learner import LearnConfig, draw_training_set, drerm
from ..loss import member_error
from ..perturb import gaussian_shift_tv, pointwise_cover_violation, sample, tv_distance
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
from .config import ConfigError, ExperimentConfig, build_hypothesis, build_hypothesis_class
from .indexed import FiniteView
from .report import ExperimentReport

CHUNK = 256
EXACT_ZERO_TOL = 1e-12
SEED_DUMP_LIMIT = 100_000  # max trials * t for verbatim hex seed dumps


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
    """Task, view and full-domain behaviors, plus each grid entry's loss level."""
    task = build_task(cfg.task)
    hclass = build_hypothesis_class(cfg.hypothesis_class)
    model = cfg.kind in ("model1", "model2")
    train_view = "rep" if model else "true"
    if model:
        cover_k = cfg.params.get("cover_k")
        if cover_k:
            task = with_constructed_cover(task, int(cover_k))
        for x, _, _ in task.atoms():
            if task.family_of[x].rep_set is None:
                raise ConfigError(f"{cfg.kind} requires representative sets; x={x!r} has none")
    view = FiniteView(task, views=("true", "rep") if model else ("true",))
    labels, witnesses = view.behaviors(hclass)
    dr_true = view.dr_exact(labels, "true")

    if cfg.kind == "realizable":
        best = float(dr_true.min())
        if best > EXACT_ZERO_TOL:
            raise ConfigError(
                "task is not realizable: exhaustive enumeration of "
                f"{len(dr_true)} behaviors has minimum exact DR loss {best:.6g} > 0"
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
    epsilons = [float(entry["epsilon"]) for entry in cfg.grid]
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
                           dr_true=dr_true, train_view=train_view, levels=levels,
                           eps_prime=eps_prime, k=task.max_family_size(train_view))


def _erm_chunk(cfg: ExperimentConfig, s, g: int, chunk: int, lo: int, hi: int) -> list:
    entry = cfg.grid[g]
    n, m = int(entry["n"]), int(entry["m"])
    epsilon = float(entry["epsilon"])
    level = s.levels[g]
    trials = hi - lo
    exact_inner = bool(entry.get("exact_inner", False))
    view = s.view
    rng = seeding.stream(cfg.master_seed, g, chunk)
    slots = view.draw_clean_slots(rng, trials * n)
    if exact_inner:
        dr_s = view.dr_s_exact_inner(s.labels, slots, trials, n, s.train_view)
    else:
        counts = view.draw_slot_counts(rng, slots, m, s.train_view)
        dr_s, scores = view.dr_s(s.labels, slots, counts, trials, n, m, True)

    loss_pop_of = {}  # ERM witness -> its exact DR loss
    rows = []
    for t in range(trials):
        if exact_inner:
            # no sampled points to restrict to; minimize over the full-domain behaviors
            best = int(np.argmin(dr_s[:, t]))
            erm_h = s.witnesses[best]
            loss_emp = float(dr_s[best, t])
            loss_pop = float(s.dr_true[best])
        else:
            trial = slice(t * n, (t + 1) * n)
            erm_h, loss_emp = view.erm_on_sample(s.hclass, s.labels, s.witnesses, scores[:, t],
                                                 slots[trial], counts[trial])
            if erm_h not in loss_pop_of:
                loss_pop_of[erm_h] = float(view.dr_exact(view.labels_of(erm_h), "true")[0])
            loss_pop = loss_pop_of[erm_h]
        row = {"grid_index": g, "trial": lo + t, "n": n, "m": m, "k": s.k,
               "epsilon": epsilon, "delta": float(entry.get("delta", 0.05))}
        if cfg.kind == "model1":
            row["eps_prime"] = s.eps_prime
        if cfg.kind in ("model1", "model2"):
            row["bound"] = level
        row.update(loss_emp=loss_emp, loss_pop=loss_pop, gap=abs(loss_emp - loss_pop))
        if cfg.kind == "agnostic":
            max_gap = float(np.max(np.abs(dr_s[:, t] - s.dr_true)))
            row.update(max_gap=max_gap, viol=bool(max_gap > epsilon))
        else:
            zero_train = dr_s[:, t] <= EXACT_ZERO_TOL
            row.update(viol_erm=bool(loss_emp <= EXACT_ZERO_TOL and loss_pop >= level),
                       viol_any=bool(np.any(zero_train & (s.dr_true >= level))))
        row["hypothesis"] = erm_h.to_json()
        rows.append(row)
    return rows


def _erm_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: list) -> tuple:
    viol_key = "viol" if cfg.kind == "agnostic" else "viol_erm"
    delta = float(entry.get("delta", 0.05))
    agg = {
        "n": entry["n"],
        "m": entry["m"],
        "epsilon": entry["epsilon"],
        "delta": delta,
        "median_gap": median(r["gap"] for r in rows),
    }
    if cfg.kind != "agnostic":
        agg["viol_any_freq"] = sum(r["viol_any"] for r in rows) / len(rows)
    if cfg.kind in ("model1", "model2"):
        agg["bound"] = s.levels[g]
    return agg, [Tally(freq_at_most, f"{cfg.kind} violation freq (grid {g})",
                       f"{viol_key}_freq", sum(r[viol_key] for r in rows), delta)]


def _batch_dr_s(s, rng, draws: int, n: int, m: int) -> np.ndarray:
    """Empirical DR loss of every behavior on ``draws`` fresh training sets."""
    slots = s.view.draw_clean_slots(rng, draws * n)
    counts = s.view.draw_slot_counts(rng, slots, m, "true")
    return s.view.dr_s(s.labels, slots, counts, draws, n, m)


def _double_chunk(cfg: ExperimentConfig, s, g: int, _chunk: int, lo: int, hi: int) -> list:
    """Paired-draw estimate of Pr(B) >= (2/5) Pr(A), one row per master-seed trial."""
    entry = cfg.grid[g]
    n, m = int(entry["n"]), int(entry["m"])
    epsilon = float(entry["epsilon"])
    draws = int(cfg.params.get("draws", 20000))
    rows = []
    for trial in range(lo, hi):
        rng = seeding.stream(cfg.master_seed, g, trial)
        dr_s = _batch_dr_s(s, rng, draws, n, m)
        dr_sp = _batch_dr_s(s, rng, draws, n, m)
        zero = dr_s <= EXACT_ZERO_TOL
        event_a = np.any(zero & (s.dr_true[:, None] >= epsilon), axis=0)
        event_b = np.any(zero & (dr_sp >= epsilon / 2), axis=0)
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
    return rows


def _double_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: list) -> tuple:
    agg = {
        "n": entry["n"],
        "m": entry["m"],
        "epsilon": entry["epsilon"],
        "mean_pr_a": sum(r["pr_a"] for r in rows) / len(rows),
        "mean_pr_b": sum(r["pr_b"] for r in rows) / len(rows),
        "min_margin": min(r["mean_d"] + 3 * r["se_d"] for r in rows),
        "vacuous_trials": sum(r["vacuous"] for r in rows),
    }
    return agg, [Assertion(name=f"double-sampling grid {g} trial {r['trial']}",
                           observed=r["mean_d"],
                           bound=-3.0 * r["se_d"],
                           slack_rule="mean(1_B - (2/5) 1_A) >= -3 se",
                           passed=r["passed"])
                 for r in rows if not r["vacuous"]]


# ---------------------------------------------------------------------------
# Concentration suite
#
# Inner: Pr[|mean - p| >= eps/8] against 2 exp(-m eps^2 / 32).
# Outer: Pr[|avg worst-member loss - E| >= eps/4] against 2 exp(-n eps^2 / 8).


def _binom_pmf(m: int, p: float) -> np.ndarray:
    # exact pmf via integer binomials; m stays desk-scale here
    return np.array([math.comb(m, i) * (p ** i) * ((1 - p) ** (m - i)) for i in range(m + 1)])


def _exact_mean_worst(m: int, probs: list) -> float:
    """E[max_j Binomial(m, p_j)] / m for independent batches, by enumeration."""
    if len(probs) == 1:
        return probs[0]
    if len(probs) == 2:
        pmf_a = _binom_pmf(m, probs[0])
        pmf_b = _binom_pmf(m, probs[1])
        grid = np.maximum.outer(np.arange(m + 1), np.arange(m + 1))
        return float(pmf_a @ grid @ pmf_b) / m
    raise ConfigError("exact outer mean implemented for at most 2 members per example")


def _hoeffding_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    """Exact mistake levels of the fixed hypothesis, for the targets the grid uses."""
    h = build_hypothesis(cfg.params["hypothesis"])
    s = SimpleNamespace(tails=[])  # per grid entry: (deviation threshold, tail bound)
    for entry in cfg.grid:
        eps = float(entry["epsilon"])
        if entry["target"] == "inner":
            s.tails.append((eps / 8.0, min(1.0, 2.0 * math.exp(-int(entry["m"]) * eps ** 2 / 32.0))))
        else:
            s.tails.append((eps / 4.0, min(1.0, 2.0 * math.exp(-int(entry["n"]) * eps ** 2 / 8.0))))
    targets = {entry["target"] for entry in cfg.grid}
    if "inner" in targets:
        task = build_task(cfg.params["inner_task"])
        x, y, _ = task.atoms()[0]
        u = task.members_for(x, "true")[0]
        s.inner_probs = u.prob_array()
        s.inner_p = member_error(h, u, y)
        s.inner_mist = np.array([1.0 if h.predict(z) != y else 0.0 for z in u.support])
    if "outer" in targets:
        s.outer_m = int(cfg.params.get("outer_m", 1))
        s.view = view = FiniteView(build_task(cfg.params["outer_task"]), views=("true",))
        members = [view.task.members_for(x, "true") for x in view.atom_x]
        s.p_members = np.zeros((view.n_atoms, view.max_k["true"]))
        for a, us in enumerate(members):
            for j, u in enumerate(us):
                s.p_members[a, j] = member_error(h, u, view.atom_y[a])
        s.expected = math.fsum(
            view.atom_p[a] * _exact_mean_worst(s.outer_m, list(s.p_members[a, :len(us)]))
            for a, us in enumerate(members)
        )
    return s


def _hoeffding_chunk(cfg: ExperimentConfig, s, g: int, chunk: int, lo: int, hi: int) -> list:
    entry = cfg.grid[g]
    target = entry["target"]
    epsilon = float(entry["epsilon"])
    threshold = s.tails[g][0]
    trials = hi - lo
    rng = seeding.stream(cfg.master_seed, g, chunk)
    if target == "inner":
        n, m = "", int(entry["m"])
        counts = rng.multinomial(m, s.inner_probs, size=trials)
        devs = np.abs(counts @ s.inner_mist / m - s.inner_p)
    else:
        n, m = int(entry["n"]), s.outer_m
        slots = rng.choice(s.view.n_atoms, size=(trials, n), p=s.view.atom_p)
        worst = np.zeros((trials, n))
        for j in range(s.p_members.shape[1]):
            draws = rng.binomial(m, s.p_members[slots, j]) / m
            np.maximum(worst, draws, out=worst)
        devs = np.abs(worst.mean(axis=1) - s.expected)
    return [{
        "grid_index": g,
        "trial": lo + t,
        "target": target,
        "n": n,
        "m": m,
        "epsilon": epsilon,
        "deviation": float(dev),
        "exceeded": bool(dev >= threshold),
    } for t, dev in enumerate(devs)]


def _hoeffding_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: list) -> tuple:
    threshold, bound = s.tails[g]
    agg = {
        "target": entry["target"],
        "n": entry.get("n", ""),
        "m": entry.get("m", cfg.params.get("outer_m", 1)),
        "epsilon": float(entry["epsilon"]),
        "threshold": threshold,
        "bound": bound,
    }
    return agg, [Tally(freq_within_three_sigma, f"hoeffding {entry['target']} tail (grid {g})",
                       "exceed_freq", sum(r["exceeded"] for r in rows), bound)]


# ---------------------------------------------------------------------------
# Derandomization suites: plurality-vote DR must stay under delta + eps(eta);
# the median radius's out-of-band mass must stay under eps(eta) + delta


def _derand_grid(cfg: ExperimentConfig, task, point_errors: dict) -> list:
    """Per grid entry: eta, delta, vote count, eps(eta) and the exceed threshold."""
    out = []
    for entry in cfg.grid:
        eta, delta = float(entry["eta"]), float(entry["delta"])
        t_votes = int(entry.get("t") or required_trials(eta, task.max_attack_size(), delta))
        eps_eta = epsilon_eta(task, point_errors, eta)
        out.append(SimpleNamespace(eta=eta, delta=delta, t_votes=t_votes, eps_eta=eps_eta,
                                   threshold=delta + eps_eta))
    return out


def _classifier_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    setup = derand_classifier_setup(
        p_err=float(cfg.params.get("p_err", 0.2)),
        a_size=int(cfg.params.get("a_size", 8)),
        grid=int(cfg.params.get("grid_randomness", 1000)),
        p_err_high=cfg.params.get("p_err_high"),
    )
    task = setup.attack_task
    # per atom: its label, its mass and the per-draw error levels of its attack points
    attack_levels = [(y, p, np.array([setup.errors[xp] for xp in task.attacks[x]]))
                     for x, y, p in task.atoms()]

    def dr_value(draws, t_votes: int) -> float:
        """Mass of the atoms some attack point fools under the plurality of ``draws``."""
        total = 0.0
        for y, p, levels in attack_levels:
            # a draw below a point's error level votes wrong; a tied vote goes to -1
            twice_wrong = 2 * np.searchsorted(draws, levels, side="left")
            if np.any(twice_wrong > t_votes) or (y == 1 and np.any(twice_wrong == t_votes)):
                total += p
        return total

    errors = worst_point_errors(setup.base, task)
    return SimpleNamespace(derand=setup, grid=_derand_grid(cfg, task, errors),
                           randomness=setup.base.randomness, value_key="dr_value",
                           value=dr_value)


def _certifier_setup(cfg: ExperimentConfig) -> SimpleNamespace:
    setup = derand_certifier_setup(
        q_in=float(cfg.params.get("q_in", 0.9)),
        a_size=int(cfg.params.get("a_size", 8)),
        grid=int(cfg.params.get("grid_randomness", 1000)),
        alpha=float(cfg.params.get("alpha", 0.5)),
        beta=float(cfg.params.get("beta", 0.5)),
    )
    out_level = 1.0 - setup.q_in

    def band_value(draws, t_votes: int) -> float:
        # the lower median is in band iff in-band draws fill positions
        # 0..(t-1)//2; every attack point has the same per-draw out probability
        in_votes = t_votes - int(np.searchsorted(draws, out_level, side="left"))
        return 1.0 if in_votes < (t_votes - 1) // 2 + 1 else 0.0

    task = setup.attack_task
    gamma = {(x, y): out_level for x, y, _ in task.atoms()}
    return SimpleNamespace(derand=setup, grid=_derand_grid(cfg, task, gamma),
                           randomness=setup.certifier.randomness, value_key="band_value",
                           value=band_value)


def _derand_chunk(cfg: ExperimentConfig, s, g: int, _chunk: int, lo: int, hi: int) -> list:
    """One row per trial: the setup's ``value`` of that trial's sorted fixed draws."""
    p = s.grid[g]
    dump_seeds = cfg.trials * p.t_votes <= SEED_DUMP_LIMIT
    rows = []
    for trial in range(lo, hi):
        rng = seeding.stream(cfg.master_seed, g, trial)
        draws = np.sort(np.asarray(sample(s.randomness, p.t_votes, rng)))
        value = s.value(draws, p.t_votes)
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
            "seeds_hex": ";".join(encode_seeds(draws.tolist())) if dump_seeds else "",
        })
    return rows


def _derand_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: list) -> tuple:
    p = s.grid[g]
    agg = {"eta": p.eta, "delta": p.delta, "t_votes": p.t_votes, "eps_eta": p.eps_eta}
    checks = [Tally(freq_at_most, f"{cfg.kind.replace('-', ' ')} exceed freq (grid {g})",
                    "exceed_freq", sum(r["exceeded"] for r in rows), p.delta)]
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
# Smoothing suite: train on the Gaussian representative, then bound the
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
    params = cfg.params
    return SimpleNamespace(
        task=task,
        hclass=hclass,
        learn=LearnConfig(n=int(params.get("n", 100)), m=int(params.get("m", 100)),
                          hypothesis_class=hclass, sample_from="rep"),
        sigma=float(params.get("sigma", 1.0)),
        shift_points=int(params.get("shift_points", 21)),
        mc_slack=float(params.get("mc_slack", 0.01)),
    )


def _smoothing_chunk(cfg: ExperimentConfig, s, _g: int, _chunk: int, lo: int, hi: int) -> list:
    """Train once per trial, then evaluate that trial's cut at every grid entry."""
    sigma = s.sigma
    atoms = s.task.atoms()
    rows = []
    for trial in range(lo, hi):
        rng = seeding.stream(cfg.master_seed, 0, trial)
        cut = drerm(s.hclass, draw_training_set(s.task, s.learn, rng)).t
        clean_loss = math.fsum(p * smoothed_threshold_error(cut, x, y, sigma)
                               for x, y, p in atoms)
        for g, entry in enumerate(cfg.grid):
            delta = float(entry["delta"])
            worst = 0.0
            for x, y, p in atoms:
                if delta == 0.0:
                    shifts = [x]
                else:
                    shifts = np.linspace(x - delta, x + delta, s.shift_points)
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
                "ok": bool(excess <= d_delta + s.mc_slack),
            })
    return rows


def _smoothing_aggregate(cfg: ExperimentConfig, s, g: int, entry: dict, rows: list) -> tuple:
    max_excess = max(r["excess"] for r in rows)
    d_delta = rows[0]["d_delta"]
    asserted = bool(entry.get("assert", True))
    agg = {
        "delta": entry["delta"],
        "sigma": s.sigma,
        "max_excess": max_excess,
        "d_delta": d_delta,
        "slack": s.mc_slack,
        "asserted": asserted,
    }
    if not asserted:
        return agg, []
    return agg, [Assertion(
        name=f"smoothing excess vs TV (delta={entry['delta']})",
        observed=max_excess,
        bound=d_delta + s.mc_slack,
        slack_rule="max excess <= d(delta) + slack",
        passed=max_excess <= d_delta + s.mc_slack,
    )]


# ---------------------------------------------------------------------------
# The driver


class Suite(NamedTuple):
    """One suite as data; ``run_suite`` owns everything the suites share."""

    setup: Callable        # cfg -> setup, built once per run_suite call per process
    chunk: Callable        # (cfg, setup, grid index, unit index, lo, hi) -> rows
    aggregate: Callable    # (cfg, setup, grid index, entry, grid rows) -> (agg, checks)
    required: tuple | dict  # grid keys read; a dict maps each allowed target to its keys
    assert_default: bool = True  # whether a grid entry without "assert" checks its Tally
    unit: int = CHUNK      # trials per work unit
    per_grid: bool = True  # False: one unit covers every grid entry


_ERM = Suite(_finite_setup, _erm_chunk, _erm_aggregate, ("n", "m", "epsilon"),
             assert_default=False)

SUITES = {
    "realizable": _ERM,
    "agnostic": _ERM,
    "model1": _ERM,
    "model2": _ERM,
    "double-sampling": Suite(_finite_setup, _double_chunk, _double_aggregate,
                             ("n", "m", "epsilon"), unit=1),
    "hoeffding": Suite(_hoeffding_setup, _hoeffding_chunk, _hoeffding_aggregate,
                       {"inner": ("m", "epsilon"), "outer": ("n", "epsilon")}),
    "derand-classifier": Suite(_classifier_setup, _derand_chunk, _derand_aggregate,
                               ("eta", "delta")),
    "derand-certifier": Suite(_certifier_setup, _derand_chunk, _derand_aggregate,
                              ("eta", "delta")),
    "smoothing": Suite(_smoothing_setup, _smoothing_chunk, _smoothing_aggregate,
                       ("delta",), unit=1, per_grid=False),
}


def _chunk_ranges(trials: int, size: int) -> list:
    return [(c, lo, min(lo + size, trials))
            for c, lo in enumerate(range(0, trials, size))]


def _check_grid(cfg: ExperimentConfig, required) -> None:
    """Reject grid entries missing a key the suite reads, before any trial runs."""
    for g, entry in enumerate(cfg.grid):
        keys = required
        if isinstance(required, dict):
            target = entry.get("target")
            if target not in required:
                raise ConfigError(f"{cfg.kind} target must be one of "
                                  f"{', '.join(required)}, got {target!r}")
            keys = required[target]
        missing = [key for key in keys if key not in entry]
        if missing:
            raise ConfigError(f"{cfg.kind} grid entry {g} is missing {', '.join(missing)}")


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


def _worker_chunk(g: int, c: int, lo: int, hi: int) -> list:
    cfg, setup = _worker
    return SUITES[cfg.kind].chunk(cfg, setup, g, c, lo, hi)


def _collect(cfg: ExperimentConfig, suite: Suite, setup, jobspecs: list) -> list:
    if cfg.jobs == 1:
        return [suite.chunk(cfg, setup, *spec) for spec in jobspecs]
    with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_init_worker,
                             initargs=(cfg,)) as ex:
        return list(ex.map(_worker_chunk, *zip(*jobspecs)))


def run_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the suite ``cfg.kind`` names and assemble its report."""
    start = time.perf_counter()
    if cfg.kind not in SUITES:
        raise ConfigError(f"unknown suite kind {cfg.kind!r}")
    suite = SUITES[cfg.kind]
    _check_grid(cfg, suite.required)
    setup = _setup(cfg)
    grids = range(len(cfg.grid)) if suite.per_grid else [0]
    jobspecs = [(g, c, lo, hi) for g in grids
                for c, lo, hi in _chunk_ranges(cfg.trials, suite.unit)]
    rows = [row for chunk in _collect(cfg, suite, setup, jobspecs) for row in chunk]
    rows.sort(key=itemgetter("grid_index", "trial"))

    aggregates = []
    assertions = []
    for g, entry in enumerate(cfg.grid):
        grid_rows = [r for r in rows if r["grid_index"] == g]
        trials = len(grid_rows)
        agg, checks = suite.aggregate(cfg, setup, g, entry, grid_rows)
        grid_assertions = []
        for check in checks:
            if isinstance(check, Tally):
                lo_w, hi_w = wilson_interval(check.count, trials)
                asserted = bool(entry.get("assert", suite.assert_default))
                agg.update({check.freq_key: check.count / trials, "wilson_lo": lo_w,
                            "wilson_hi": hi_w, "asserted": asserted})
                if not asserted:
                    continue
                check = check.test(check.name, check.count, trials, check.bound)
            grid_assertions.append(check)
        agg.update(grid_index=g, trials=trials,
                   passed=all(a.passed for a in grid_assertions))
        aggregates.append(agg)
        assertions += grid_assertions

    return ExperimentReport(
        kind=cfg.kind,
        config=cfg.echo(),
        columns=list(rows[0]),
        rows=rows,
        agg_columns=sorted({k for a in aggregates for k in a}),
        aggregates=aggregates,
        assertions=assertions,
        passed=all(a.passed for a in assertions),
        wall_clock_s=time.perf_counter() - start,
    )
