import json
import math

import numpy as np
import pytest
import yaml
from scipy.stats import binom

from drloss import seeding
from drloss.cli import main as cli_main
from drloss.hypo import FiniteClass, IntervalClass, ThresholdClass
from drloss.learner import drerm
from drloss.loss import SampleSet, empirical_dr_loss
from drloss.stats import wilson_interval
from drloss.tasks import build_task, random_finite_task, t1, task_from_dict
from drloss.xprun import (
    KINDS,
    SUITES,
    ConfigError,
    ExperimentReport,
    emit_report,
    load_config,
    read_csv_sections,
    render_csv,
    run_suite,
)
from drloss.xprun.config import build_hypothesis, build_hypothesis_class
from drloss.xprun.indexed import FiniteView


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


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

    def test_env_overrides_seed_and_jobs(self):
        cfg = load_config("realizable", env={"DRLOSS_SEED": "77", "DRLOSS_JOBS": "3"})
        assert cfg.master_seed == 77 and cfg.jobs == 3

    def test_cli_flag_beats_env(self):
        cfg = load_config("realizable", seed=5, env={"DRLOSS_SEED": "77"})
        assert cfg.master_seed == 5

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

    def test_build_hypothesis_class_specs(self):
        assert isinstance(build_hypothesis_class({"tag": "threshold-1d"}), ThresholdClass)
        cls = build_hypothesis_class({"tag": "finite-table",
                                      "tables": [[[0.0, -1], [1.0, 1]]]})
        assert isinstance(cls, FiniteClass)
        with pytest.raises(ConfigError):
            build_hypothesis_class({"tag": "mystery"})

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

    def test_gaussian_member(self):
        spec = {
            "atoms": [[0.0, -1, 1.0]],
            "distributions": {"g": {"gaussian": {"center": 0.0, "sigma": 2.0}}},
            "families": [{"x": 0.0, "true": ["g"], "k": 1}],
        }
        task = task_from_dict(spec)
        assert not task.is_finite()

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

    def _materialize(self, view, slots, counts, m, sampled_from="true"):
        """Rebuild an explicit SampleSet whose batches realize the given counts."""
        clean = tuple((view.atom_x[a], int(view.atom_y[a])) for a in slots)
        perturbed = {}
        for i, a in enumerate(slots):
            members = view.task.members_for(view.atom_x[a], sampled_from)
            for j in range(len(members)):
                batch = []
                for d in range(view.n_points):
                    batch.extend([view.points[d]] * int(counts[i, j, d]))
                perturbed[(i, j)] = tuple(batch)
        return SampleSet(clean=clean, perturbed=perturbed, m=m, sampled_from=sampled_from)

    def test_dr_s_matches_direct_empirical_loss(self):
        for hclass in (ThresholdClass(), IntervalClass()):
            for seed in range(10):
                r = rng_for(100 + seed)
                task = random_finite_task(r)
                view = FiniteView(task)
                labels, witnesses = view.behaviors(hclass)
                n, m = 4, 3
                slots = view.draw_clean_slots(r, n)
                counts = view.draw_slot_counts(r, slots, m, "true")
                dr_s = view.dr_s(labels, slots, counts, 1, n, m)[:, 0]
                s = self._materialize(view, slots, counts, m)
                for val, w in zip(dr_s, witnesses):
                    assert val == pytest.approx(empirical_dr_loss(w, s), abs=1e-12)

    def test_erm_on_sample_matches_learner_drerm(self):
        for seed in range(10):
            r = rng_for(200 + seed)
            task = random_finite_task(r)
            view = FiniteView(task)
            n, m = 5, 4
            slots = view.draw_clean_slots(r, n)
            counts = view.draw_slot_counts(r, slots, m, "true")
            labels, witnesses = view.behaviors(ThresholdClass())
            _, scores = view.dr_s(labels, slots, counts, 1, n, m, True)
            witness, best = view.erm_on_sample(ThresholdClass(), labels, witnesses, scores[:, 0],
                                               slots, counts)
            s = self._materialize(view, slots, counts, m)
            direct = drerm(ThresholdClass(), s)
            assert witness == direct
            assert best == pytest.approx(empirical_dr_loss(direct, s), abs=1e-12)


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
        for name in ("realizable.yaml", "model1-constructed-cover.yaml", "custom-task.json"):
            path = pathlib.Path(__file__).resolve().parents[1] / "configs" / name
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
        # the suite's sorted-draw counting must agree with DerandClassifier
        from drloss.derand import derandomize_classifier, evaluate_derand_dr
        from drloss.tasks import derand_classifier_setup
        cfg = tiny_config("derand-classifier", trials=6)
        cfg.grid = [{"eta": 0.25, "delta": 0.05, "t": t_votes, "assert": False}]
        rep = run_suite(cfg)
        setup = derand_classifier_setup(p_err=0.2, a_size=8, grid=1000)
        for row in rep.rows:
            rng = seeding.stream(cfg.master_seed, 0, row["trial"])
            det = derandomize_classifier(setup.base, t_votes, rng)
            assert row["dr_value"] == pytest.approx(
                evaluate_derand_dr(det, setup.attack_task), abs=1e-12)
            # small runs dump the fixed draws verbatim; they must reconstruct
            from drloss.derand import decode_seeds
            assert sorted(decode_seeds(row["seeds_hex"].split(";"))) == sorted(det.seeds)

    @pytest.mark.parametrize("t_votes", [21, 20])  # odd and even (lower median)
    def test_cert_trial_matches_object_level_evaluation(self, t_votes):
        from drloss.derand import derandomize_certifier, evaluate_cert_band
        from drloss.tasks import derand_certifier_setup
        cfg = tiny_config("derand-certifier", trials=6)
        cfg.grid = [{"eta": 0.25, "delta": 0.05, "t": t_votes, "assert": False}]
        rep = run_suite(cfg)
        setup = derand_certifier_setup(q_in=0.9, a_size=8, grid=1000)
        for row in rep.rows:
            rng = seeding.stream(cfg.master_seed, 0, row["trial"])
            det = derandomize_certifier(setup.certifier, t_votes, rng)
            band = evaluate_cert_band(det, setup.attack_task,
                                      alpha=setup.alpha, beta=setup.beta)
            assert row["band_value"] == pytest.approx(band.violation_mass, abs=1e-12)

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

    def test_smoothing_sigma_blowup_approaches_coin_flip(self):
        from drloss.xprun.suites import smoothed_threshold_error
        loss = 0.5 * (smoothed_threshold_error(1.5, 0.0, -1, 1e6)
                      + smoothed_threshold_error(1.5, 3.0, 1, 1e6))
        assert loss == pytest.approx(0.5, abs=1e-4)


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

    def test_empty_report_renders_headers(self):
        rep = ExperimentReport(kind="realizable", config={}, columns=["a", "b"],
                               rows=[], agg_columns=["c"], aggregates=[],
                               assertions=[], passed=True)
        text = render_csv(rep)
        assert "a,b" in text and "# aggregates" in text

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


class TestCli:
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

    @pytest.mark.parametrize("kind,config,env", [
        ("smoothing", {}, {"DRLOSS_SEED": "abc"}),
        ("realizable", {"task": {"builtin": "nope"}}, {}),
        ("realizable", {"task": {"inline": {
            "atoms": [[0.0, -1, 0.6], [3.0, 1, 0.5]],
            "distributions": {"d0": [[0.0, 1.0]], "d3": [[3.0, 1.0]]},
            "families": [{"x": 0.0, "true": ["d0"], "k": 1},
                         {"x": 3.0, "true": ["d3"], "k": 1}],
        }}}, {}),
        ("realizable", {"grid": [{"n": 10, "epsilon": 0.1, "delta": 0.05}]}, {}),
        ("hoeffding", {"grid": [{"target": "outer", "m": 5, "epsilon": 0.4}]}, {}),
        ("hoeffding", {"grid": [{"target": "sideways", "m": 5, "epsilon": 0.4}]}, {}),
        ("realizable", {"task": 5}, {}),
        ("realizable", {"grid": [{"n": "abc", "m": 10, "epsilon": 0.1}]}, {}),
        ("realizable", {"grid": [{"n": 10, "m": 10, "epsilon": "x"}]}, {}),
        ("realizable", {"params": [1]}, {}),
    ], ids=["seed-env-not-int", "unknown-builtin-task", "probabilities-sum-to-1.1",
            "grid-entry-missing-m", "hoeffding-outer-missing-n", "hoeffding-unknown-target",
            "task-not-a-mapping", "grid-n-not-a-number", "grid-epsilon-not-a-number",
            "params-not-a-mapping"])
    def test_exit_two_on_malformed_config(self, tmp_path, capsys, monkeypatch, kind, config, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(config, kind=kind, trials=2)))
        assert cli_main([kind, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_exit_two_on_negative_seed_flag(self, capsys):
        assert cli_main(["smoothing", "--seed", "-1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: master seed must be >= 0") and "Traceback" not in err
