import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.stats import binom

import drloss
from drloss import seeding
from drloss.cli import _build_parser
from drloss.cli import main as cli_main
from drloss.hypo import FiniteClass, IntervalClass, ThresholdClass
from drloss.learner import drerm
from drloss.loss import SampleSet, empirical_dr_loss
from drloss.perturb import GaussianDistribution
from drloss.stats import Assertion, wilson_interval
from drloss.tasks import build_task, t1, task_from_dict
from drloss.xprun import (
    KINDS,
    SUITES,
    ConfigError,
    ExperimentReport,
    emit_report,
    load_config,
    read_csv_sections,
    render_csv,
    render_json,
    run_suite,
)
from drloss.xprun.config import (
    DEFAULTS,
    SCHEMA,
    build_hypothesis,
    build_hypothesis_class,
    check,
)
from drloss.xprun.indexed import FiniteView

from generators import random_finite_task, random_table_hypothesis, rng_for


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.016 < lo < 0.022
        assert 0.11 < hi < 0.12

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestConfig:
    def test_defaults_load_for_every_kind(self):
        for kind in ("realizable", "agnostic", "model1", "model2", "double-sampling",
                     "hoeffding", "derand-classifier", "derand-certifier", "smoothing"):
            cfg = load_config(kind)
            assert cfg.kind == kind and cfg.trials >= 1 and cfg.grid
        assert set(SUITES) == set(KINDS)

    def test_file_merge_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "kind": "realizable",
            "trials": 7,
            "grid": [{"n": 5, "m": 5, "epsilon": 0.2, "delta": 0.1, "assert": True}],
        }))
        cfg = load_config("realizable", path=str(path))
        assert cfg.trials == 7
        assert cfg.grid[0]["n"] == 5

    def test_file_merge_json_params(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"draws": 123}, "trials": 2}))
        cfg = load_config("double-sampling", path=str(path))
        assert cfg.params["draws"] == 123
        assert cfg.trials == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "agnostic"}))
        with pytest.raises(ConfigError):
            load_config("realizable", path=str(path))

    def test_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trials": 0}))
        with pytest.raises(ConfigError):
            load_config("realizable", path=str(bad))
        bad.write_text(json.dumps({"grid": []}))
        with pytest.raises(ConfigError):
            load_config("realizable", path=str(bad))
        bad.write_text(json.dumps({"grid": [{"eta": 0.7, "delta": 0.05}]}))
        with pytest.raises(ConfigError):
            load_config("derand-classifier", path=str(bad))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_config("nonsense")

    def test_schema_has_a_rule_for_every_default_key(self):
        assert set(SCHEMA) == set(KINDS)
        for kind in KINDS:
            schema = SCHEMA[kind]
            assert set(DEFAULTS[kind]["params"]) <= set(schema.params), kind
            for entry in DEFAULTS[kind]["grid"]:
                required = schema.grid[entry["target"]] if schema.by_target else schema.grid
                rules = {*required, *schema.optional} | ({"target"} if schema.by_target else set())
                assert set(entry) <= rules, (kind, entry)

    def test_build_hypothesis_class_specs(self):
        assert isinstance(build_hypothesis_class({"tag": "threshold-1d"}), ThresholdClass)
        cls = build_hypothesis_class({"tag": "finite-table",
                                      "tables": [[[0.0, -1], [1.0, 1]]]})
        assert isinstance(cls, FiniteClass)
        with pytest.raises(ConfigError):
            build_hypothesis_class({"tag": "mystery"})

    def test_table_points_keep_their_coordinates_as_written(self):
        # the ERM rows echo a table witness through to_json
        table = [[[0, 1], -1], [[2.5, 3], 1]]
        cls = build_hypothesis_class({"tag": "finite-table", "tables": [table]})
        assert json.dumps(cls.hypotheses[0].to_json()["params"]["table"]) == json.dumps(table)
        cls = build_hypothesis_class({"tag": "finite-table", "tables": [[[0, -1], [2, 1]]]})
        assert json.dumps(cls.hypotheses[0].to_json()["params"]["table"]) == "[[0.0, -1], [2.0, 1]]"

    def test_build_hypothesis(self):
        h = build_hypothesis({"classTag": "threshold-1d", "params": {"t": 0.5}})
        assert h.predict(1.0) == 1


class TestTaskSerialization:
    def test_inline_round_trip(self):
        spec = {
            "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
            "distributions": {
                "d0": [[0.0, 1.0]],
                "u01": [[0.0, 0.5], [1.0, 0.5]],
                "d3": [[3.0, 1.0]],
                "u23": [[2.0, 0.5], [3.0, 0.5]],
            },
            "families": [
                {"x": 0.0, "true": ["d0", "u01"], "k": 2},
                {"x": 3.0, "true": ["d3", "u23"], "k": 2},
            ],
        }
        task = task_from_dict(spec)
        reference = t1()
        assert task.data_dist.support == reference.data_dist.support
        assert task.domain_points() == reference.domain_points()

    def test_integral_float_k_counts_as_the_integer(self):
        family = dict(T1_TASK["families"][0], k=2.0)
        task = task_from_dict(dict(T1_TASK, families=[family, T1_TASK["families"][1]]))
        assert task.family_of == task_from_dict(T1_TASK).family_of
        assert type(task.family_of[0.0].k) is int

    def test_gaussian_member(self):
        spec = {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {"g": {"gaussian": {"center": 0.0, "sigma": 2.0}}},
            "families": [{"x": 0.0, "true": ["g"], "k": 1}],
        }
        task = task_from_dict(spec)
        assert isinstance(task.members_for(0.0, "true")[0], GaussianDistribution)

    def test_task_points_become_floats(self):
        # axis-rect witnesses are built from these coordinates and echoed in reports
        task = task_from_dict({
            "atoms": [[[0, 1], 1, 1.0]],
            "distributions": {"d": [[[0, 1], 1.0]]},
            "families": [{"x": [0, 1], "true": ["d"], "k": 1}],
        })
        assert json.dumps(task.atoms()) == "[[[0.0, 1.0], 1, 1.0]]"

    def test_build_task_file(self, tmp_path):
        spec = {
            "atoms": [[0.0, 1, 1.0]],
            "distributions": {"d": [[0.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["d"], "k": 1}],
        }
        path = tmp_path / "task.json"
        path.write_text(json.dumps(spec))
        task = build_task({"file": str(path)})
        assert task.atoms() == [(0.0, 1, 1.0)]

    def test_build_task_unknown_builtin(self):
        with pytest.raises(ValueError):
            build_task({"builtin": "missing"})


class TestFiniteViewEquivalence:
    def test_dr_exact_matches_loss_module(self):
        from drloss.loss import population_dr_loss_exact
        for seed in range(20):
            r = rng_for(seed)
            task = random_finite_task(r)
            view = FiniteView(task)
            labels, witnesses = view.behaviors(ThresholdClass())
            exact = view.dr_exact(labels, "true")
            for val, w in zip(exact, witnesses):
                assert val == pytest.approx(population_dr_loss_exact(w, task), abs=1e-12)

    def _materialize(self, view, slots, rows, m):
        """Rebuild an explicit SampleSet whose batches realize the given member rows."""
        counts = np.abs(rows[:, :, :-1]).transpose(1, 0, 2).astype(int)
        clean = tuple((view.atom_x[a], int(view.atom_y[a])) for a in slots)
        batches = []
        for i, a in enumerate(slots):
            members = []
            for j in range(len(view.task.members_for(view.atom_x[a], "true"))):
                batch = []
                for d in range(view.n_points):
                    batch.extend([view.points[d]] * int(counts[i, j, d]))
                members.append(tuple(batch))
            batches.append(tuple(members))
        return SampleSet(clean=clean, batches=tuple(batches), m=m)

    def test_dr_s_matches_direct_empirical_loss(self):
        for hclass in (ThresholdClass(), IntervalClass()):
            for seed in range(10):
                r = rng_for(100 + seed)
                task = random_finite_task(r)
                view = FiniteView(task)
                labels, witnesses = view.behaviors(hclass)
                n, m = 4, 3
                slots = view.draw_clean_slots(r, n)
                rows = view.draw_slot_counts(r, slots, m, "true")
                scores = view.dr_s(labels, slots, rows, 1, n, m, dr=True)
                s = self._materialize(view, slots, rows, m)
                for val, hits, w in zip(scores.dr[:, 0], scores.hits[:, 0], witnesses):
                    assert val == pytest.approx(empirical_dr_loss(w, s), abs=1e-12)
                    assert hits == round(empirical_dr_loss(w, s) * n * m)

    @pytest.mark.parametrize("case", ["threshold", "interval", "finite-table"])
    def test_erm_on_sample_matches_learner_drerm(self, case):
        """``drerm`` on the sample set is the reference for the suites' ERM.

        The small samples of the second ten seeds tie minimizers, so the
        two paths' tie-breaks are compared too.
        """
        ties = 0
        for seed in range(20):
            r = rng_for(200 + seed)
            task = random_finite_task(r)
            view = FiniteView(task)
            hclass = {"threshold": ThresholdClass(), "interval": IntervalClass(),
                      "finite-table": FiniteClass([random_table_hypothesis(r, view.points)
                                                   for _ in range(int(r.integers(1, 12)))])}[case]
            n, m = (5, 4) if seed < 10 else (2, 2)
            slots = view.draw_clean_slots(r, n)
            rows = view.draw_slot_counts(r, slots, m, "true")
            labels, witnesses = view.behaviors(hclass)
            scores = view.dr_s(labels, slots, rows, 1, n, m)
            witness = view.erm_on_sample(hclass, labels, witnesses, scores.ties[:, 0],
                                         view.seen_points(slots, rows, 1, n)[0])
            best = scores.loss_emp[0]
            s = self._materialize(view, slots, rows, m)
            direct = drerm(hclass, s)
            assert witness == direct
            assert best == pytest.approx(empirical_dr_loss(direct, s), abs=1e-12)
            losses = [empirical_dr_loss(b.witness, s)
                      for b in hclass.enumerate_behaviors(s.all_points())]
            ties += losses.count(min(losses)) > 1
        assert ties > 0


# the builtin t1 task written inline
T1_TASK = {
    "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
    "distributions": {"d0": [[0.0, 1.0]], "u01": [[0.0, 0.5], [1.0, 0.5]],
                      "d3": [[3.0, 1.0]], "u23": [[2.0, 0.5], [3.0, 0.5]]},
    "families": [{"x": 0.0, "true": ["d0", "u01"], "k": 2},
                 {"x": 3.0, "true": ["d3", "u23"], "k": 2}],
}

# one negative atom at 0 with a point-mass member
POINT_TASK = {
    "atoms": [[0.0, -1, 1.0]],
    "distributions": {"d": [[0.0, 1.0]]},
    "families": [{"x": 0.0, "true": ["d"], "k": 1}],
}

# two point-mass atoms in the plane, split by a box
PLANE_TASK = {
    "atoms": [[[0.0, 0.0], -1, 0.5], [[1.0, 1.0], 1, 0.5]],
    "distributions": {"neg": [[[0.0, 0.0], 1.0]], "pos": [[[1.0, 1.0], 1.0]]},
    "families": [{"x": [0.0, 0.0], "true": ["neg"], "k": 1},
                 {"x": [1.0, 1.0], "true": ["pos"], "k": 1}],
}

# two atoms, each with a point-mass member and a shared uniform member: with
# the threshold at 0.5 the members' error levels are {0, 1/2} and {1, 1/2}
TWO_MEMBER_OUTER_TASK = {
    "atoms": [[0.0, -1, 0.5], [1.0, -1, 0.5]],
    "distributions": {"at0": [[0.0, 1.0]], "at1": [[1.0, 1.0]],
                      "mix": [[0.0, 0.5], [1.0, 0.5]]},
    "families": [{"x": 0.0, "true": ["at0", "mix"], "k": 2},
                 {"x": 1.0, "true": ["at1", "mix"], "k": 2}],
}


def tiny_config(kind, **overrides):
    cfg = load_config(kind)
    cfg.trials = overrides.pop("trials", 10)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


class TestSuites:
    def test_row_counts_match_trials_times_grid(self):
        shrink = {"double-sampling": 2, "hoeffding": 300}
        for kind in ("realizable", "agnostic", "model1", "model2", "double-sampling",
                     "hoeffding", "derand-classifier", "derand-certifier", "smoothing"):
            cfg = tiny_config(kind, trials=shrink.get(kind, 10))
            if kind == "double-sampling":
                cfg.params = dict(cfg.params, draws=2000)
            rep = run_suite(cfg)
            assert len(rep.rows) == cfg.trials * len(cfg.grid)
            for agg in rep.aggregates:
                for key in agg:
                    if key.endswith("freq"):
                        assert 0.0 <= agg[key] <= 1.0

    def test_realizable_rejects_unrealizable_task(self):
        cfg = tiny_config("realizable")
        cfg.task = {"builtin": "t1-noise", "params": {"rate": 0.1}}
        with pytest.raises(ConfigError):
            run_suite(cfg)

    def test_model_requires_rep_sets(self):
        cfg = tiny_config("model1")
        cfg.task = {"builtin": "t1"}
        with pytest.raises(ConfigError):
            run_suite(cfg)

    def test_model2_cover_violation_aborts_with_witness(self):
        cfg = tiny_config("model2")
        cfg.task = {"inline": {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {
                "r": [[0.0, 0.5], [1.0, 0.5]],
                "u": [[0.0, 0.2], [2.0, 0.8]],
            },
            "families": [{"x": 0.0, "true": ["u"], "rep": ["r"], "k": 1}],
        }}
        with pytest.raises(ConfigError, match="2.0"):
            run_suite(cfg)

    def test_model1_constructed_cover_from_bare_task(self):
        # t1 ships no representative sets; cover_k builds them greedily.
        # For each family the k=1 cover is the point mass (lowest index), so
        # the achieved radius is TV(uniform pair, point mass) = 0.5.
        cfg = tiny_config("model1", trials=25)
        cfg.task = {"builtin": "t1"}
        cfg.params = dict(cfg.params, cover_k=1)
        rep = run_suite(cfg)
        assert rep.rows[0]["eps_prime"] == pytest.approx(0.5, abs=1e-12)
        assert rep.rows[0]["bound"] == pytest.approx(0.6, abs=1e-12)
        assert rep.passed

    def test_example_configs_load_and_run(self):
        import pathlib
        paths = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*"))
        assert len(paths) >= 3
        for path in paths:
            kind = yaml.safe_load(path.read_text())["kind"]
            cfg = load_config(kind, path=str(path))
            cfg.trials = 10
            assert run_suite(cfg).passed

    def test_model1_reports_constructed_radius(self):
        cfg = tiny_config("model1", trials=20)
        rep = run_suite(cfg)
        assert rep.rows[0]["eps_prime"] == pytest.approx(0.1, abs=1e-12)
        assert rep.rows[0]["bound"] == pytest.approx(0.2, abs=1e-12)

    def test_model2_bound_uses_k(self):
        cfg = tiny_config("model2", trials=20)
        rep = run_suite(cfg)
        assert rep.rows[0]["bound"] == pytest.approx(0.2, abs=1e-12)  # k=2, eps=0.1

    def test_double_sampling_vacuous_when_epsilon_above_one(self):
        cfg = tiny_config("double-sampling", trials=2)
        cfg.grid = [{"n": 2, "m": 3, "epsilon": 1.01, "assert": True}]
        cfg.params = dict(cfg.params, draws=500)
        rep = run_suite(cfg)
        assert all(r["vacuous"] and r["pr_a"] == 0.0 for r in rep.rows)
        assert rep.passed
        # event B compares against eps/2, so it empties only once eps > 2
        cfg = tiny_config("double-sampling", trials=2)
        cfg.grid = [{"n": 2, "m": 3, "epsilon": 2.5, "assert": True}]
        cfg.params = dict(cfg.params, draws=500)
        rep = run_suite(cfg)
        assert all(r["pr_a"] == 0.0 and r["pr_b"] == 0.0 for r in rep.rows)
        assert rep.passed

    def test_double_sampling_single_hypothesis_binomial_oracle(self):
        # |H| = 1, one atom, one two-point member: closed forms
        #   Pr(A) = (1-p)^(n m),  Pr(B) = Pr(A) * P[Binom(nm, p) >= nm eps/2]
        p, n, m, eps = 0.42, 2, 4, 0.4
        cfg = tiny_config("double-sampling", trials=4)
        cfg.task = {"inline": {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {"u": [[0.0, 1 - p], [1.0, p]]},
            "families": [{"x": 0.0, "true": ["u"], "k": 1}],
        }}
        cfg.hypothesis_class = {"tag": "finite-table",
                                "tables": [[[0.0, -1], [1.0, 1]]]}  # wrong only at 1.0
        cfg.grid = [{"n": n, "m": m, "epsilon": eps, "assert": True}]
        draws = 40000
        cfg.params = dict(cfg.params, draws=draws)
        rep = run_suite(cfg)
        pr_a_exact = (1 - p) ** (n * m)
        need = math.ceil(n * m * eps / 2)
        pr_b_exact = pr_a_exact * float(binom.sf(need - 1, n * m, p))
        # the same draws feed S for A and B, so B requires a fresh S' tail
        for row in rep.rows:
            se_a = math.sqrt(pr_a_exact * (1 - pr_a_exact) / draws)
            se_b = math.sqrt(pr_b_exact * (1 - pr_b_exact) / draws)
            assert abs(row["pr_a"] - pr_a_exact) <= 5 * se_a
            assert abs(row["pr_b"] - pr_b_exact) <= 5 * se_b
        assert rep.passed

    def test_agnostic_constant_class_gap_is_binomial_deviation(self):
        # single-x noisy task, point-mass member, one constant hypothesis:
        # DR_S = Binom(n, q)/n and DR_D = q, so the per-trial gap has an
        # exact binomial law
        q, n, eps, trials = 0.3, 50, 0.12, 400
        cfg = tiny_config("agnostic", trials=trials)
        cfg.task = {"inline": {
            "atoms": [[0.0, -1, 1 - q], [0.0, 1, q]],
            "distributions": {"d": [[0.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["d"], "k": 1}],
        }}
        cfg.hypothesis_class = {"tag": "finite-table", "tables": [[[0.0, -1]]]}
        cfg.grid = [{"n": n, "m": 5, "epsilon": eps, "delta": 0.05, "assert": False}]
        rep = run_suite(cfg)
        for row in rep.rows:
            assert row["loss_pop"] == pytest.approx(q, abs=1e-12)
            assert row["max_gap"] == pytest.approx(abs(row["loss_emp"] - q), abs=1e-12)
        exceed = sum(1 for r in rep.rows if r["max_gap"] > eps)
        ks = np.arange(n + 1)
        p_exact = float(binom.pmf(ks, n, q)[np.abs(ks / n - q) > eps].sum())
        se = math.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(exceed / trials - p_exact) <= 4 * se

    def test_report_only_grid_entries_never_fail(self):
        # below-schedule points are reported, not asserted
        cfg = tiny_config("realizable", trials=30)
        cfg.grid = [{"n": 1, "m": 1, "epsilon": 0.1, "delta": 0.05, "assert": False}]
        rep = run_suite(cfg)
        assert rep.passed
        assert rep.assertions == []
        assert rep.aggregates[0]["asserted"] is False

    def test_hoeffding_epsilon_zero_would_be_vacuous(self):
        cfg = tiny_config("hoeffding", trials=200)
        cfg.grid = [{"target": "inner", "m": 50, "epsilon": 3.0, "assert": True}]
        rep = run_suite(cfg)  # bound 2e^{-...} tiny but threshold 3/8 unreachable
        assert rep.passed

    @pytest.mark.parametrize("t_votes", [31, 30])  # odd and even (tie-break path)
    def test_derand_trial_matches_object_level_evaluation(self, t_votes):
        # the suite's vote counts must agree with DerandClassifier; at a
        # p_err_high of one half the positive atom's votes often tie
        from drloss.derand import decode_seeds, derandomize_classifier, evaluate_derand_dr
        from drloss.tasks import derand_classifier_setup
        for p_err_high in (None, 0.5):
            cfg = tiny_config("derand-classifier", trials=6)
            cfg.params = dict(cfg.params, p_err_high=p_err_high)
            cfg.grid = [{"eta": 0.25, "delta": 0.05, "t": t_votes, "assert": False}]
            rep = run_suite(cfg)
            setup = derand_classifier_setup(p_err=0.2, a_size=8, grid=1000, p_err_high=p_err_high)
            for row in rep.rows:
                rng = seeding.stream(cfg.master_seed, 0, row["trial"])
                det = derandomize_classifier(setup.base, t_votes, rng)
                assert row["dr_value"] == evaluate_derand_dr(det, setup.attack_task)
                # small runs dump the fixed draws verbatim, sorted; they must reconstruct
                assert decode_seeds(row["seeds_hex"].split(";")) == tuple(sorted(det.seeds))

    @pytest.mark.parametrize("t_votes", [21, 20])  # odd and even (lower median)
    def test_cert_trial_matches_object_level_evaluation(self, t_votes):
        # at a q_in below one half most medians leave the band
        from drloss.derand import decode_seeds, derandomize_certifier, evaluate_cert_band
        from drloss.tasks import derand_certifier_setup
        for q_in in (0.9, 0.45):
            cfg = tiny_config("derand-certifier", trials=6)
            cfg.params = dict(cfg.params, q_in=q_in)
            cfg.grid = [{"eta": 0.25, "delta": 0.05, "t": t_votes, "assert": False}]
            rep = run_suite(cfg)
            setup = derand_certifier_setup(q_in=q_in, a_size=8, grid=1000)
            for row in rep.rows:
                rng = seeding.stream(cfg.master_seed, 0, row["trial"])
                det = derandomize_certifier(setup.certifier, t_votes, rng)
                band = evaluate_cert_band(det, setup.attack_task,
                                          alpha=setup.alpha, beta=setup.beta)
                assert row["band_value"] == band.violation_mass
                assert decode_seeds(row["seeds_hex"].split(";")) == tuple(sorted(det.seeds))

    @pytest.mark.parametrize("params", [
        {"p_err": 0.2, "a_size": 8, "grid_randomness": 1000, "p_err_high": None},
        {"p_err": 0.2, "a_size": 8, "grid_randomness": 1000, "p_err_high": 0.6},
        {"p_err": 0.41, "a_size": 3, "grid_randomness": 17, "p_err_high": 0.45},
        {"p_err": 0.25, "a_size": 2, "grid_randomness": 2, "p_err_high": 0.75},
        {"p_err": 0.0, "a_size": 2, "grid_randomness": 9, "p_err_high": 1.0},
    ], ids=["default", "p-err-high", "grid17", "level-on-support-point", "levels-zero-and-one"])
    def test_derand_eps_eta_matches_closure_oracle(self, params):
        # the setup's eps(eta) from support prefixes, against the exact
        # per-draw errors of the randomized classifier's closures
        from drloss.derand import epsilon_eta, worst_point_errors
        from drloss.tasks import derand_classifier_setup
        from drloss.xprun.suites import _classifier_setup
        # 0.03 and 0.089 fall between grid17's levels and its exact errors
        etas = [0.01, 0.03, 0.05, 0.089, 0.09, 0.1, 0.25, 0.45, 0.49]
        cfg = tiny_config("derand-classifier", params=params,
                          grid=[{"eta": eta, "delta": 0.05, "t": 5} for eta in etas])
        s = _classifier_setup(check(dict(vars(cfg))))
        setup = derand_classifier_setup(p_err=params["p_err"], a_size=params["a_size"],
                                        grid=params["grid_randomness"],
                                        p_err_high=params["p_err_high"])
        errors = worst_point_errors(setup.base, setup.attack_task)
        assert [p.eps_eta for p in s.grid] == [epsilon_eta(setup.attack_task, errors, eta)
                                               for eta in etas]

    def test_realizable_epsilon_above_one_never_violates(self):
        cfg = tiny_config("realizable", trials=40)
        cfg.grid = [{"n": 5, "m": 5, "epsilon": 1.01, "delta": 0.05, "assert": True}]
        rep = run_suite(cfg)
        assert all(not r["viol_erm"] and not r["viol_any"] for r in rep.rows)
        assert rep.passed

    def test_agnostic_exact_inner_gap_driven_by_n_only(self):
        # m -> infinity surrogate: the uniform gap shrinks with n alone
        medians = []
        for n in (20, 320):
            cfg = tiny_config("agnostic", trials=60)
            cfg.grid = [{"n": n, "m": 1, "epsilon": 0.15, "delta": 0.05,
                         "exact_inner": True, "assert": False}]
            rep = run_suite(cfg)
            gaps = sorted(r["max_gap"] for r in rep.rows)
            medians.append(gaps[len(gaps) // 2])
        assert medians[1] < medians[0]

    def test_check_fills_defaults_and_reports_echo_the_config_as_written(self):
        cfg = tiny_config("realizable", trials=3)
        cfg.grid = [{"n": 10.0, "m": 10, "epsilon": 1}]
        assert check(dict(vars(cfg))).grid == [{"n": 10, "m": 10, "epsilon": 1.0, "delta": 0.05,
                                                "exact_inner": False, "assert": False}]
        rep = run_suite(cfg)
        assert rep.config["grid"] == [{"n": 10.0, "m": 10, "epsilon": 1}]
        assert type(rep.rows[0]["n"]) is int and type(rep.aggregates[0]["n"]) is float
        assert rep.assertions == []
        cfg = tiny_config("derand-classifier")
        cfg.params = {}
        checked = check(dict(vars(cfg)))
        assert checked.params == {"p_err": 0.2, "p_err_high": None, "a_size": 8,
                                  "grid_randomness": 1000}
        assert checked.grid[0]["t"] is None and checked.grid[0]["assert"] is True

    def test_run_suite_checks_a_config_changed_after_loading(self):
        cfg = tiny_config("derand-classifier")
        cfg.grid = [{"eta": 0.25, "delta": 0.05, "tt": 3}]
        with pytest.raises(ConfigError, match="'tt'"):
            run_suite(cfg)
        cfg = tiny_config("hoeffding")
        cfg.params = dict(cfg.params, outer_M=0)
        with pytest.raises(ConfigError, match="'outer_M'"):
            run_suite(cfg)

    def test_task_built_once_per_run(self, monkeypatch):
        # the setup is shared by every chunk and trial of one run_suite call
        from drloss.xprun import suites
        calls = []
        build = suites.build_task
        monkeypatch.setattr(suites, "build_task", lambda spec: calls.append(spec) or build(spec))
        for kind, trials in (("realizable", 257), ("double-sampling", 2), ("smoothing", 2)):
            cfg = tiny_config(kind, trials=trials)
            if kind == "double-sampling":
                cfg.params = dict(cfg.params, draws=200)
            calls.clear()
            run_suite(cfg)
            assert len(calls) == 1, kind

    @pytest.mark.parametrize("m", [1, 7, 40, 1100])
    def test_exact_mean_worst_matches_scipy(self, m):
        from drloss.xprun.suites import _exact_mean_worst
        ks = np.arange(m + 1)
        for probs in ((0.3, 0.55), (0.0, 0.5), (1.0, 0.5), (0.02, 0.97)):
            pa, pb = (binom.pmf(ks, m, p) for p in probs)
            expected = float(pa @ np.maximum.outer(ks, ks) @ pb) / m
            assert _exact_mean_worst(m, list(probs)) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k", [3, 4])
    def test_exact_mean_worst_matches_brute_force_past_two_members(self, k):
        # the sum over every outcome of the k batches' counts, pmf products as weights
        from drloss.xprun.suites import _binom_pmf, _exact_mean_worst
        r = rng_for(k)
        for m in range(1, 7):
            for probs in ([0.0] * k, [1.0] + [0.5] * (k - 1), list(r.random(k))):
                pmfs = [_binom_pmf(m, p) for p in probs]
                outcomes = itertools.product(range(m + 1), repeat=k)
                expected = math.fsum(math.prod(pmf[i] for pmf, i in zip(pmfs, counts)) * max(counts)
                                     for counts in outcomes) / m
                assert _exact_mean_worst(m, probs) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_binom_pmf_keeps_every_float_range_term_bit_for_bit(self):
        from drloss.xprun.suites import _binom_pmf
        for m, p in ((1000, 0.5), (1000, 0.3), (1100, 0.3)):
            pmf = _binom_pmf(m, p)
            for i in range(m + 1):
                try:
                    direct = math.comb(m, i) * (p ** i) * ((1 - p) ** (m - i))
                except OverflowError:
                    continue
                assert pmf[i] == direct, (m, p, i)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_smoothing_scores_at_the_tasks_sigma(self):
        # a task at sigma 2 is trained and scored at sigma 2, not at the default 1
        from drloss.xprun.suites import smoothed_threshold_error
        raw = load_config("smoothing")
        raw.task = {"builtin": "smoothing", "params": {"sigma": 2.0}}
        raw.params = dict(raw.params, sigma=2.0)
        raw.trials = 2
        rep = run_suite(raw)
        atoms = build_task(raw.task).atoms()
        for row in rep.rows:
            assert row["sigma"] == 2.0
            assert row["clean_loss"] == math.fsum(
                p * smoothed_threshold_error(row["t_hat"], x, y, 2.0) for x, y, p in atoms)

    def test_smoothing_sigma_blowup_approaches_coin_flip(self):
        from drloss.xprun.suites import smoothed_threshold_error
        loss = 0.5 * (smoothed_threshold_error(1.5, 0.0, -1, 1e6)
                      + smoothed_threshold_error(1.5, 3.0, 1, 1e6))
        assert loss == pytest.approx(0.5, abs=1e-4)


def hoeffding_exact_tail(cfg, s, g: int) -> float:
    """P(deviation >= threshold) at grid point ``g``, from the exact law of the statistic.

    Inner: the mistake vector is 0/1, so the mistake count of m draws is
    Binomial(m, p) with p the member's mistake mass, and the deviation is
    |K / m - inner_p|.  Outer: each example's worst member count is the
    largest of independent Binomial(outer_m, p_j), mixed over the atoms;
    the n examples' counts are convolved.  Deviations use the suite's float
    arithmetic and its ``>=``.
    """
    entry = cfg.grid[g]
    threshold = s.tails[g][0]
    if entry["target"] == "inner":
        m = entry["m"]
        k = np.arange(m + 1)
        pmf = binom.pmf(k, m, float(s.inner_probs[s.inner_mist == 1].sum()))
        return math.fsum(pmf[np.abs(k / m - s.inner_p) >= threshold])
    n, m = entry["n"], cfg.params["outer_m"]
    # with outer_m = 1 each worst loss is 0.0 or 1.0, so the suite's float
    # mean over the n examples is the integer sum S over n, rounded once
    assert m == 1
    k = np.arange(m + 1)
    worst = np.zeros(m + 1)
    for a, p_atom in enumerate(s.view.atom_p):
        cdf = np.prod([binom.cdf(k, m, p) for p in s.p_members[a]], axis=0)
        worst += p_atom * np.diff(cdf, prepend=0.0)
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, worst)
    total = np.arange(len(pmf))
    return math.fsum(pmf[np.abs(total / n - s.expected) >= threshold])


def test_hoeffding_exact_tails_inside_bound_and_wilson_interval():
    """Both concentration steps, checked in law at each default grid point.

    The exact tail must respect the paper's Hoeffding bound and lie in the
    Wilson interval of the observed exceed frequency.  A sampler that
    drew from the wrong law would leave the interval; the bound alone is
    too loose to notice.
    """
    from drloss.xprun.suites import _hoeffding_setup
    cfg = load_config("hoeffding")
    s = _hoeffding_setup(cfg)
    rep = run_suite(cfg)
    assert len(rep.aggregates) == len(cfg.grid) == 4
    for g, agg in enumerate(rep.aggregates):
        exact = hoeffding_exact_tail(cfg, s, g)
        assert 0.0 < exact <= agg["bound"] == s.tails[g][1], (g, exact)
        assert agg["wilson_lo"] <= exact <= agg["wilson_hi"], (g, exact, agg)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_csv_by_rows(report) -> str:
    """The row-wise CSV renderer that the column-wise ``render_csv`` replaced.

    Kept as the slow reference: every cell of every row through ``_cell``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def table(columns, rows):
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c, "")) for c in columns])

    buf.write(f"# drloss report schema={report.schema_version} kind={report.kind}\n")
    buf.write("# config: " + json.dumps(report.config, sort_keys=True) + "\n")
    buf.write("# sections follow: per-trial rows, then aggregates, then assertions\n")
    table(report.columns, list(report.rows))
    buf.write("# aggregates\n")
    table(report.agg_columns, report.aggregates)
    buf.write("# assertions\n")
    table(["name", "observed", "bound", "slack_rule", "passed"],
          [vars(a) for a in report.assertions])
    buf.write(f"# passed={1 if report.passed else 0}\n")
    return buf.getvalue()


def render_json_by_dumps(report) -> str:
    """The JSON report as ``json.dumps(..., indent=2)`` writes it: the slow reference."""
    payload = {
        "schema_version": report.schema_version,
        "kind": report.kind,
        "config": report.config,
        "columns": report.columns,
        "rows": list(report.rows),
        "agg_columns": report.agg_columns,
        "aggregates": report.aggregates,
        "assertions": [vars(a) for a in report.assertions],
        "passed": report.passed,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestReports:
    def test_emit_byte_identical_across_runs(self, tmp_path):
        for fmt in ("csv", "json"):
            payloads = []
            for run in range(2):
                cfg = tiny_config("realizable", trials=8)
                rep = run_suite(cfg)
                path = tmp_path / f"r{run}.{fmt}"
                emit_report(rep, fmt, path)
                payloads.append(path.read_bytes())
            assert payloads[0] == payloads[1]

    def test_different_seed_changes_output(self, tmp_path):
        cfg1 = tiny_config("realizable", trials=8)
        cfg2 = tiny_config("realizable", trials=8, master_seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_suite(cfg1), "csv", a)
        emit_report(run_suite(cfg2), "csv", b)
        assert a.read_bytes() != b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config("realizable", trials=3)
        rep = run_suite(cfg)
        path = tmp_path / "report.csv"
        emit_report(rep, "csv", path)
        sections = read_csv_sections(path)
        assert len(sections["rows"]) == len(rep.rows)
        first = sections["rows"][0]
        assert float(first["loss_pop"]) == rep.rows[0]["loss_pop"]
        assert int(first["trial"]) == rep.rows[0]["trial"]
        assert len(sections["assertions"]) == len(rep.assertions)

    def test_csv_round_trip_keeps_line_breaks_and_commas_in_cells(self, tmp_path):
        # a quoted cell may hold a line break, and a "#" line inside it is text
        text = ["two\nlines", "crlf\r\nend", "a,b", "\n# aggregates\n", "plain"]
        rep = ExperimentReport(
            kind="smoothing", config={}, table={"text": text, "i": np.arange(5)},
            agg_columns=["note"], aggregates=[{"note": "x,\ny"}],
            assertions=[Assertion("rule\r\nnext", 0.5, 1.0, "a,b", True)], passed=True)
        path = tmp_path / "report.csv"
        emit_report(rep, "csv", path)
        sections = read_csv_sections(path)
        assert [row["text"] for row in sections["rows"]] == text
        assert [row["i"] for row in sections["rows"]] == ["0", "1", "2", "3", "4"]
        assert sections["aggregates"] == [{"note": "x,\ny"}]
        assert [(a["name"], a["slack_rule"]) for a in sections["assertions"]] == [
            ("rule\r\nnext", "a,b")]

    def test_csv_round_trip_keeps_first_cells_that_start_with_a_hash(self, tmp_path):
        # the csv writer leaves a leading "#" bare, where the reader would see a comment
        text = ["#note", "# aggregates", "# assertions", "plain", "a#b"]
        rep = ExperimentReport(
            kind="smoothing", config={}, table={"text": text, "i": np.arange(5)},
            agg_columns=["#note"], aggregates=[{"#note": "# aggregates"}],
            assertions=[Assertion("#rule", 0.5, 1.0, "#slack", True)], passed=True)
        path = tmp_path / "report.csv"
        emit_report(rep, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[4:10] == ['"#note",0', '"# aggregates",1', '"# assertions",2', "plain,3",
                               "a#b,4", "# aggregates"]
        sections = read_csv_sections(path)
        assert [row["text"] for row in sections["rows"]] == text
        assert [row["i"] for row in sections["rows"]] == ["0", "1", "2", "3", "4"]
        assert sections["aggregates_columns"] == ["#note"]
        assert sections["aggregates"] == [{"#note": "# aggregates"}]
        assert [(a["name"], a["slack_rule"]) for a in sections["assertions"]] == [
            ("#rule", "#slack")]

    # small trial counts; smoothing and hoeffding interleave or mix cell types
    ORACLE_TRIALS = {"hoeffding": 300, "double-sampling": 3, "smoothing": 3}

    @pytest.mark.parametrize("kind", KINDS)
    def test_csv_matches_row_wise_oracle(self, kind):
        cfg = tiny_config(kind, trials=self.ORACLE_TRIALS.get(kind, 20))
        if kind == "double-sampling":
            cfg.params = dict(cfg.params, draws=500)
        rep = run_suite(cfg)
        assert render_csv(rep) == render_csv_by_rows(rep)

    def test_rows_view_keeps_cell_types(self):
        rep = run_suite(tiny_config("hoeffding", trials=3))
        inner, outer = rep.rows[0], rep.rows[-1]
        assert (inner["target"], inner["n"], outer["target"]) == ("inner", "", "outer")
        assert type(outer["n"]) is int and type(inner["m"]) is int
        assert type(inner["deviation"]) is float and type(inner["exceeded"]) is bool
        assert len(rep.rows) == 12 and list(rep.rows)[-1] == outer
        assert rep.rows[10:] == list(rep.rows)[10:] and rep.rows[::-1][0] == outer
        assert rep.rows[3:3] == []

        cfg = tiny_config("realizable", trials=3)
        cfg.grid = [{"n": 10.0, "m": 10, "epsilon": 0.1}]
        rep = run_suite(cfg)
        row = rep.rows[0]
        assert type(row["n"]) is int and type(rep.aggregates[0]["n"]) is float
        lines = render_csv(rep).splitlines()  # 4 header lines, the rows, 2 more headers
        agg = dict(zip(lines[len(rep.rows) + 5].split(","), lines[len(rep.rows) + 6].split(",")))
        assert (agg["n"], agg["m"], agg["asserted"]) == ("10.0", "10", "0")
        assert type(row["viol_erm"]) is bool and type(row["loss_emp"]) is float
        assert row["hypothesis"] == {"classTag": "threshold-1d",
                                     "params": {"t": row["hypothesis"]["params"]["t"]}}
        assert [type(v) for v in row.values()] == [type(v) for v in list(rep.rows)[0].values()]

    def test_empty_report_renders_headers(self):
        rep = ExperimentReport(kind="realizable", config={}, table={"a": [], "b": []},
                               agg_columns=["c"], aggregates=[], assertions=[], passed=True)
        text = render_csv(rep)
        assert "a,b" in text and "# aggregates" in text

    def test_csv_edge_cells_match_row_wise_oracle(self):
        # text the csv module must quote, floats whose repr is unusual, a list
        # mixing "" and ints; the aggregates are a one-column table, whose
        # lone empty fields the csv module writes as ""
        text = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\ronly", "crlf\r\n", "", '""']
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -0.0, 1.5]
        table = {
            "text": text,
            "mixed": ["", 3, "", -7, 0, "", 12, ""],
            "x": np.array(floats),
            "flag": np.array([True, False, False, True, True, False, True, False]),
            "count": np.array([0, -1, 2 ** 62, 5, 5, 0, 3, -1]),
            "hypothesis": [{"name": t, "t": x} for t, x in zip(text, floats)],
        }
        rep = ExperimentReport(
            kind="hoeffding", config={"note": 'a,"b"\n'}, table=table, agg_columns=["only"],
            aggregates=[{"only": v} for v in ("", "x,y", 1.0, "", "\r", 3)],
            assertions=[Assertion('tail, "grid 0"', -0.0, 5e-324, "rule\nnext", False)],
            passed=False)
        assert render_csv(rep) == render_csv_by_rows(rep)
        assert '\nonly\n""\n' in render_csv(rep)

        empty = ExperimentReport(
            kind="smoothing", config={}, table={"a": np.array([], dtype=float), "b": []},
            agg_columns=["c"], aggregates=[], assertions=[], passed=True)
        assert render_csv(empty) == render_csv_by_rows(empty)

    @pytest.mark.parametrize("kind", KINDS)
    def test_json_matches_dumps_on_default_reports(self, kind):
        rep = run_suite(load_config(kind))
        assert render_json(rep) == render_json_by_dumps(rep)

    def test_json_edge_cells_match_dumps(self):
        # cells whose JSON text is unusual: non-finite and signed floats, the
        # smallest subnormal, escapes, empty containers, nested JSON cells and
        # config keys that are not strings
        text = ["plain", "caf\u00e9 \u2014 \U0001f600", "tab\tnew\nline\x00\x1f", 'q"b\\',
                "", ",\n", "}, {", "\u2028"]
        floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308]
        table = {
            "text": text,
            "mixed": ["", 3, None, -7, 0.5, True, [], {}],
            "x": np.array(floats),
            "flag": np.array([True, False, False, True, True, False, True, False]),
            "count": np.array([0, -1, 2 ** 62, 5, 5, 0, 3, -1]),
            "hypothesis": [{"classTag": t, "params": {"t": x, "box": [[x, -x], [], {}]}}
                           for t, x in zip(text, floats)],
        }
        shared = {"classTag": "threshold-1d", "params": {"t": 0.5}}
        table["witness"] = [shared] * 4 + [{"a": []}, {}, [1, [2, {}]], "text"]
        rep = ExperimentReport(
            kind="hoeffding",
            config={"note": "\u00e9\n", "grid": [], "params": {}, "rows": [],
                    "text": '\n  "rows": []', "nested": {"a": [{}, [[]]], "b": [1.5, -0.0]}},
            table=table, agg_columns=["only", "z"],
            aggregates=[{"only": v, "z": math.inf} for v in ("", "x,y", -0.0, None, "\r", 3)],
            assertions=[Assertion('tail, "grid 0"', -0.0, 5e-324, "rule\nnext", False)],
            passed=False)
        assert render_json(rep) == render_json_by_dumps(rep)
        for table in ({}, {"a": np.array([], dtype=float), "b": []}, {"one": [7]}):
            empty = ExperimentReport(kind="smoothing", config={}, table=table, agg_columns=[],
                                     aggregates=[], assertions=[], passed=True)
            assert render_json(empty) == render_json_by_dumps(empty)

    def test_json_keys_that_are_not_strings_match_dumps(self):
        # dumps sorts int, float, bool and None keys, then writes them as strings
        cells = [{1: "a", 3: [], 2: {}}, {2.5: 1, -0.0: 2, math.inf: 3}, {None: 1},
                 {True: [{False: 0}]}]
        rep = ExperimentReport(kind="smoothing", config={1: "one", 2: {None: [1.5]}},
                               table={"cell": cells, "i": np.arange(4)}, agg_columns=[],
                               aggregates=[], assertions=[], passed=True)
        assert render_json(rep) == render_json_by_dumps(rep)

    def test_json_structure(self, tmp_path):
        cfg = tiny_config("smoothing", trials=1)
        rep = run_suite(cfg)
        path = tmp_path / "report.json"
        emit_report(rep, "json", path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["kind"] == "smoothing"
        assert "wall_clock" not in json.dumps(data)

    # trials span at least two 256-trial chunks where a suite chunks; the
    # per-trial suites get one work unit per trial
    JOBS_TRIALS = {"hoeffding": 600, "double-sampling": 3, "smoothing": 3}

    @pytest.mark.parametrize("kind", KINDS)
    def test_jobs_do_not_change_results(self, tmp_path, kind):
        trials = self.JOBS_TRIALS.get(kind, 300)
        cfg1 = tiny_config(kind, trials=trials)
        cfg2 = tiny_config(kind, trials=trials, jobs=2)
        if kind == "double-sampling":
            cfg1.params = cfg2.params = dict(cfg1.params, draws=500)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_suite(cfg1), "json", a)
        rep2 = run_suite(cfg2)
        rep2.config["jobs"] = 1  # the echo differs by design; rows must not
        emit_report(rep2, "json", b)
        assert a.read_bytes() == b.read_bytes()


# Prints the CLI's exit code, then which of the lazily imported modules a
# fresh interpreter holds after one run.
LAZY_IMPORTS = textwrap.dedent("""
    import sys
    import drloss.cli
    code = drloss.cli.main(sys.argv[1:])
    print(code, *[m for m in ("yaml", "concurrent.futures.process") if m in sys.modules])
""")


class TestCli:
    @pytest.mark.parametrize("args,imported", [
        ([], []),
        (["--jobs", "2"], ["concurrent.futures.process"]),
        (["--config", "cfg.yaml"], ["yaml"]),
    ], ids=["default-jobs-1", "jobs-2", "yaml-config"])
    def test_yaml_and_process_pool_imported_only_when_used(self, tmp_path, args, imported):
        (tmp_path / "cfg.yaml").write_text("kind: smoothing\ntrials: 1\n")
        src = str(Path(drloss.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORTS, "smoothing", "--out", "r.csv", "--jobs", "1",
             "--quiet", *args],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", *imported]

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_parses_with_every_option(self, kind):
        options = ["--config", "c.yaml", "--seed", "7", "--out", "r.json", "--format", "json",
                   "--jobs", "2", "--quiet"]
        for argv in ([kind, *options], [*options, kind]):
            args = _build_parser().parse_args(argv)
            assert vars(args) == {"kind": kind, "config": "c.yaml", "seed": 7, "out": "r.json",
                                  "format": "json", "jobs": 2, "quiet": True}
        assert vars(_build_parser().parse_args([kind])) == {
            "kind": kind, "config": None, "seed": None, "out": None, "format": "csv",
            "jobs": None, "quiet": False}

    @pytest.mark.parametrize("argv,code", [
        (["--help"], 0),
        (["smoothing", "--help"], 0),
        (["no-such-kind"], 2),
        ([], 2),
        (["--quiet"], 2),
        (["smoothing", "--format", "xml"], 2),
        (["smoothing", "--seed", "x"], 2),
        (["smoothing", "--no-such-option"], 2),
    ], ids=["help", "kind-help", "unknown-kind", "no-kind", "options-without-kind",
            "format-xml", "bad-seed", "unknown-option"])
    def test_parser_exit_codes(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert "usage: drloss KIND [options]" in (out if code == 0 else err)

    def test_exit_zero_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "smoothing", "trials": 1}))
        code = cli_main(["smoothing", "--config", str(cfg), "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.exists()

    def test_exit_two_on_missing_config(self):
        assert cli_main(["realizable", "--config", "/nonexistent.json"]) == 2

    def test_exit_two_on_unwritable_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "smoothing", "trials": 1}))
        code = cli_main(["smoothing", "--config", str(cfg),
                         "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert code == 2

    def test_exit_two_on_unrealizable_task(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "realizable",
            "trials": 2,
            "task": {"builtin": "t1-noise", "params": {"rate": 0.1}},
        }))
        assert cli_main(["realizable", "--config", str(cfg)]) == 2

    def test_exit_one_on_statistical_failure(self, tmp_path):
        # negative slack makes the smoothing assertion unsatisfiable
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "smoothing",
            "trials": 1,
            "params": {"mc_slack": -1.0},
        }))
        assert cli_main(["smoothing", "--config", str(cfg)]) == 1

    def test_seed_flag_changes_report(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"kind": "hoeffding", "trials": 300}))
        assert cli_main(["hoeffding", "--config", str(cfgp), "--out", str(out1),
                         "--seed", "1", "--quiet"]) == 0
        assert cli_main(["hoeffding", "--config", str(cfgp), "--out", str(out2),
                         "--seed", "2", "--quiet"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("kind,config", [
        ("realizable", {"task": {"builtin": "nope"}}),
        ("realizable", {"task": {"inline": {
            "atoms": [[0.0, -1, 0.6], [3.0, 1, 0.5]],
            "distributions": {"d0": [[0.0, 1.0]], "d3": [[3.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["d0"], "k": 1},
                         {"x": 3.0, "true": ["d3"], "k": 1}],
        }}}),
        ("realizable", {"grid": [{"n": 10, "epsilon": 0.1, "delta": 0.05}]}),
        ("hoeffding", {"grid": [{"target": "outer", "m": 5, "epsilon": 0.4}]}),
        ("hoeffding", {"grid": [{"target": "sideways", "m": 5, "epsilon": 0.4}]}),
        ("realizable", {"task": 5}),
        ("realizable", {"grid": [{"n": "abc", "m": 10, "epsilon": 0.1}]}),
        ("realizable", {"grid": [{"n": 10, "m": 10, "epsilon": "x"}]}),
        ("realizable", {"params": [1]}),
        ("double-sampling", {"params": {"draws": "abc"}}),
        ("double-sampling", {"params": {"draws": 0}}),
        ("hoeffding", {"grid": [{"target": ["x"], "m": 5, "epsilon": 0.4}]}),
        ("derand-classifier", {"grid": [{"eta": 0.25, "delta": 0.05, "t": -3}]}),
        ("hoeffding", {"params": {"outer_m": 0}}),
        ("smoothing", {"params": {"sigma": 0}}),
        ("smoothing", {"params": {"shift_points": 0}}),
        ("derand-classifier", {"params": {"grid_randomness": 0}}),
        ("derand-classifier", {"params": {"p_err": 2}}),
        ("derand-classifier", {"params": {"p_err_high": -0.5}}),
        ("derand-certifier", {"params": {"q_in": 1.5}}),
        ("derand-certifier", {"params": {"alpha": -0.5}}),
        ("hoeffding", {"params": {"outer_M": 0}}),
        ("derand-classifier", {"grid": [{"eta": 0.25, "delta": 0.05, "tt": 3}]}),
        ("derand-classifier", {"params": {"a_size": 2.5}}),
        ("smoothing", {"params": {"n": 2.5}}),
        ("smoothing", {"trials": 2.5}),
        ("smoothing", {"trials": True}),
        ("smoothing", {"jobs": 1.5}),
        ("smoothing", {"trails": 5}),
        ("realizable", {"grid": [{"n": 10, "m": 10, "epsilon": 0.1, "assert": "false"}]}),
        ("agnostic", {"grid": [{"n": 10, "m": 10, "epsilon": 0.15, "exact_inner": "no"}]}),
        ("model1", {"task": {"builtin": "t1"}, "params": {"cover_k": 1.5}}),
        ("smoothing", {"params": {"mc_slack": "0.5"}}),
        ("realizable", {"params": {"draws": 5}}),
        ("smoothing", {"grid": [{"delta": 0.0, "epsilon": 0.1}]}),
        ("realizable", {"task": {"inline": PLANE_TASK},
                        "hypothesis_class": {"tag": "axis-rect-d", "dim": 2.5}}),
        ("hoeffding", {"grid": [{"target": "outer", "n": 5, "m": 3, "epsilon": 0.4}]}),
        ("realizable", {"task": None}),
        ("derand-classifier", {"task": {"builtin": "t1"}}),
        ("realizable", {"hypothesis_class": {"tag": "threshold-1d", "dimm": 3}}),
        ("agnostic", {"task": {"inline": POINT_TASK},
                      "hypothesis_class": {"tag": "finite-table", "tables": [[[0.0, 1.7]]]},
                      "grid": [{"n": 5, "m": 5, "epsilon": 0.1}]}),
        ("realizable", {"task": {"inline": dict(POINT_TASK, atoms=[[0.0, -1.3, 1.0]])},
                        "hypothesis_class": {"tag": "finite-table", "tables": [[[0.0, -1]]]},
                        "grid": [{"n": 5, "m": 5, "epsilon": 0.1}]}),
        ("hoeffding", {"params": {"hypothesis": {"classTag": "threshold-1d",
                                                 "params": {"t": "0.5"}}}}),
        ("hoeffding", {"params": {"hypothesis": {"classTag": "threshold-1d",
                                                 "params": {"t": 0.5, "lo": 0}}}}),
        ("realizable", {"grid": [{"n": 10, "m": 10, "epsilon": 10 ** 400}]}),
        ("realizable", {"task": {"builtin": "t1", "params": {"rate": 0.1}}}),
        ("agnostic", {"task": {"builtin": "t1-noise", "params": {"rate": "0.1"}}}),
        ("realizable", {"task": {"builtin": ["t1"]}}),
        ("realizable", {"task": {"inline": dict(T1_TASK, families=[
            {"x": 0.0, "true": ["d0", "u01"], "k": 2.5},
            {"x": 3.0, "true": ["d3", "u23"], "k": 2}])}}),
        ("realizable", {"task": {"inline": dict(T1_TASK, atoms=[[0.0, -1, "0.5"],
                                                               [3.0, 1, "0.5"]])}}),
        ("realizable", {"task": {"inline": dict(T1_TASK, distributions=dict(
            T1_TASK["distributions"], u01=[[0.0, "0.5"], [1.0, 0.5]]))}}),
        ("realizable", {"task": {"inline": 5}}),
        ("realizable", {"task": {"file": 5}}),
        ("double-sampling", {"grid": [{"n": 2, "m": 3, "epsilon": 0.2, "assert": False}]}),
        ("smoothing", {"params": {"sigma": 3.0}}),
        ("smoothing", {"task": {"builtin": "model1"}}),
        ("smoothing", {"task": {"builtin": "t1"}}),
        ("smoothing", {"task": {"builtin": "smoothing", "params": {"sigma": 2.0}}}),
        ("smoothing", {"task": {"inline": {
            "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
            "distributions": {"g0": {"gaussian": {"center": 0.0, "sigma": 1.0}},
                              "g3": {"gaussian": {"center": 3.0, "sigma": 1.0}},
                              "off": {"gaussian": {"center": 0.5, "sigma": 1.0}}},
            "families": [{"x": 0.0, "true": ["g0"], "rep": ["off"], "k": 1},
                         {"x": 3.0, "true": ["g3"], "rep": ["g3"], "k": 1}]}}}),
        ("hoeffding", {"params": {"inner_task": {"inline": {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {"g0": {"gaussian": {"center": 0.0, "sigma": 1.0}}},
            "families": [{"x": 0.0, "true": ["g0"], "k": 1}]}}}}),
        ("hoeffding", {"params": {"inner_task": {"builtin": "t1"}}}),
        ("hoeffding", {"params": {"inner_task": {"inline": {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {"coin": [[0.0, 0.5], [1.0, 0.5]], "at1": [[1.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["coin", "at1"], "k": 2}]}}}}),
        ("smoothing", {"task": {"inline": {
            "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
            "distributions": {"g0": {"gaussian": {"center": 0.0, "sigma": 1.0}},
                              "g3": {"gaussian": {"center": 3.0, "sigma": 1.0}},
                              "at5": [[5.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["at5"], "rep": ["g0"], "k": 1},
                         {"x": 3.0, "true": ["at5"], "rep": ["g3"], "k": 1}]}}}),
        ("smoothing", {"task": {"inline": {
            "atoms": [[[0.0, 0.0], -1, 0.5], [[3.0, 0.0], 1, 0.5]],
            "distributions": {"g0": {"gaussian": {"center": [0.0, 0.0], "sigma": 1.0}},
                              "g3": {"gaussian": {"center": [3.0, 0.0], "sigma": 1.0}}},
            "families": [{"x": [0.0, 0.0], "true": ["g0"], "rep": ["g0"], "k": 1},
                         {"x": [3.0, 0.0], "true": ["g3"], "rep": ["g3"], "k": 1}]}}}),
        ("model1", {"params": {"cover_k": 1}, "task": {"inline": {
            "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
            "distributions": {"g0": {"gaussian": {"center": 0.0, "sigma": 1.0}},
                              "d3": [[3.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["g0"], "k": 1},
                         {"x": 3.0, "true": ["d3"], "k": 1}]}}}),
    ], ids=["unknown-builtin-task", "probabilities-sum-to-1.1",
            "grid-entry-missing-m", "hoeffding-outer-missing-n", "hoeffding-unknown-target",
            "task-not-a-mapping", "grid-n-not-a-number", "grid-epsilon-not-a-number",
            "params-not-a-mapping", "draws-not-a-number", "draws-zero",
            "hoeffding-target-not-a-string", "derand-t-negative", "hoeffding-outer-m-zero",
            "smoothing-sigma-zero", "smoothing-shift-points-zero",
            "derand-grid-randomness-zero", "derand-p-err-above-one",
            "derand-p-err-high-negative", "derand-q-in-above-one",
            "derand-alpha-negative", "hoeffding-params-unknown-key",
            "derand-grid-unknown-key", "derand-a-size-not-integral", "smoothing-n-not-integral",
            "trials-not-integral", "trials-a-bool", "jobs-not-integral", "top-level-unknown-key",
            "grid-assert-a-string", "grid-exact-inner-a-string", "cover-k-not-integral",
            "smoothing-mc-slack-a-string", "realizable-params-draws-unread",
            "smoothing-grid-epsilon-unread", "axis-rect-dim-not-integral",
            "hoeffding-outer-entry-with-m", "realizable-task-null", "derand-task-unread",
            "hypothesis-class-unknown-key", "finite-table-label-not-pm-one",
            "task-label-not-pm-one", "hypothesis-t-a-string", "hypothesis-params-unknown-key",
            "epsilon-past-float-range", "builtin-task-unknown-param",
            "builtin-task-param-a-string", "builtin-task-name-a-list", "family-k-not-integral",
            "atom-probability-a-string", "member-probability-a-string",
            "inline-task-not-a-mapping", "task-file-not-a-path", "double-sampling-assert-false",
            "smoothing-sigma-not-the-tasks", "smoothing-finite-representatives",
            "smoothing-no-representatives", "smoothing-task-sigma-not-params",
            "smoothing-representative-off-centre", "hoeffding-inner-member-gaussian",
            "hoeffding-inner-task-two-atoms", "hoeffding-inner-task-two-members",
            "smoothing-true-member-not-the-gaussian", "smoothing-atoms-not-one-dimensional",
            "model1-cover-k-gaussian-true-member"])
    def test_exit_two_on_malformed_config(self, tmp_path, capsys, kind, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": kind, "trials": 2, **config}))
        assert cli_main([kind, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize("entry", [{"target": "outer", "n": 40}, {"target": "inner", "m": 40}],
                             ids=["outer", "inner"])
    def test_exit_two_on_epsilon_too_large_to_square(self, tmp_path, capsys, entry):
        # epsilon ** 2 in the tail bound overflows; a crash would exit 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": [{**entry, "epsilon": 1e300}], "trials": 5}))
        assert cli_main(["hoeffding", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["derand-classifier", "derand-certifier"])
    @pytest.mark.parametrize("config,setup,message", [
        ({"grid": [{"eta": 0.25, "delta": 0.05, "t": 1e300}]}, True,
         "t = 1.0000000000000001e+300 votes, 8.0000000000000004e+300 bytes"),
        ({"grid": [{"eta": 0.25, "delta": 0.05, "t": (1 << 24) + 1}]}, True,
         f"t = {(1 << 24) + 1} votes, {(8 << 24) + 8} bytes"),
        ({"grid": [{"eta": 1e-200, "delta": 0.05}]}, True, "is inf, not a finite count"),
        ({"grid": [{"eta": 1e-160, "delta": 0.05}]}, True, "is inf, not a finite count"),
        ({"params": {"a_size": 1e300}}, False, "params.a_size must be in [1, 2**16]"),
        ({"params": {"a_size": (1 << 16) + 1}}, False, "params.a_size must be in [1, 2**16]"),
        ({"params": {"grid_randomness": 1e300}}, False,
         "params.grid_randomness must be in [1, 2**20]"),
        ({"params": {"grid_randomness": (1 << 20) + 1}}, False,
         "params.grid_randomness must be in [1, 2**20]"),
    ], ids=["t-1e300", "t-budget-plus-one", "eta-square-underflows", "eta-bound-overflows",
            "a-size-1e300", "a-size-bound-plus-one", "grid-1e300", "grid-bound-plus-one"])
    def test_exit_two_on_a_derand_size_past_its_bound(self, tmp_path, capsys, monkeypatch,
                                                      kind, config, setup, message):
        # a crash would exit 1; nothing of the rejected size is built: no
        # trial draws its words, and a bad a_size or grid builds no setup
        from drloss.xprun import suites

        def never(*args, **kwargs):
            raise AssertionError("built past the bound")

        monkeypatch.setattr(suites.seeding, "stream", never)
        if not setup:
            monkeypatch.setattr(suites, "derand_classifier_setup", never)
            monkeypatch.setattr(suites, "derand_certifier_setup", never)
        assert suites.VOTE_WORDS_MAX == 1 << 24
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 5, **config}))
        assert cli_main([kind, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["derand-classifier", "derand-certifier"])
    def test_a_vote_count_at_the_budget_is_accepted(self, kind):
        from drloss.xprun import suites

        cfg = load_config(kind)
        cfg.grid = [{"eta": 0.25, "delta": 0.05, "t": suites.VOTE_WORDS_MAX}]
        assert suites._setup(check(vars(cfg))).grid[0].t_votes == suites.VOTE_WORDS_MAX

    def test_hoeffding_outer_mean_past_float_range(self, tmp_path, capsys):
        # math.comb(1100, 550) does not fit a float
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "hoeffding", "trials": 2,
            "params": {"outer_m": 1100, "outer_task": {"inline": TWO_MEMBER_OUTER_TASK}},
            "grid": [{"target": "outer", "n": 20, "epsilon": 0.4}],
        }))
        assert cli_main(["hoeffding", "--config", str(path), "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_hoeffding_outer_task_with_three_members_runs(self, tmp_path, capsys):
        # a valid family of three members is a statistical check, not a config error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "hoeffding", "trials": 50,
            "params": {"outer_m": 5, "outer_task": {"inline": {
                "atoms": [[0.0, -1, 1.0]],
                "distributions": {"at0": [[0.0, 1.0]], "at1": [[1.0, 1.0]],
                                  "mix": [[0.0, 0.5], [1.0, 0.5]]},
                "families": [{"x": 0.0, "true": ["at0", "mix", "at1"], "k": 3}]}}},
            "grid": [{"target": "outer", "n": 20, "epsilon": 0.4}],
        }))
        assert cli_main(["hoeffding", "--config", str(path), "--quiet"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_exit_two_on_negative_seed_flag(self, capsys):
        assert cli_main(["smoothing", "--seed", "-1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: master seed must be >= 0") and "Traceback" not in err
