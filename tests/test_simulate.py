import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oistlab import (
    ConfigError,
    DegenerateStateError,
    Dynamics,
    NumericError,
    Prior,
    closed_form_q,
    cosine_similarity,
    draw_signal,
    eta_map,
    joint_histogram,
    misclassification_rate,
    oist_step,
    phi_eval,
    run_trajectory,
)
from oistlab.priors import make_rng, next_sample
from oistlab import simulate
from oistlab.simulate import BATCH_ELEMENTS, default_bin_edges, default_theta


class TestPhiEta:
    def test_phi_at_zero(self):
        assert phi_eval(0.0, 0.27) == 0.0

    def test_phi_values(self):
        thr = 0.27
        assert phi_eval(-2.0, thr) == pytest.approx(-0.27)
        assert phi_eval(5.0, 0.0) == 0.0

    def test_eta_zero_vector(self):
        assert np.all(eta_map(np.zeros(4), 0.27, 4) == 0.0)

    def test_eta_value(self):
        out = eta_map(np.array([1.0]), 0.27, 10000)
        assert out[0] == pytest.approx(0.999973, abs=1e-12)

    def test_eta_identity_without_threshold(self):
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(eta_map(x, 0.0, 100), x)

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_eta_odd(self, x, beta):
        left = eta_map(np.array([-x]), beta, 50)
        right = eta_map(np.array([x]), beta, 50)
        assert left[0] == -right[0]

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            Dynamics(tau=0.5, omega=1.0, beta=-0.1)
        with pytest.raises(ValueError):
            Dynamics(tau=0.5, omega=1.0, beta=math.nan)
        with pytest.raises(ConfigError, match="^beta must be finite"):
            Dynamics(tau=0.5, omega=1.0, beta=math.inf)


class TestOistStep:
    def test_zero_sample_no_threshold(self):
        cfg = Dynamics(tau=0.7, omega=1.0, beta=0.0)
        state = np.array([1.0, 1.0])
        out = oist_step(state, np.zeros(2), cfg)
        assert np.allclose(out, state)

    def test_hand_computed_update(self):
        cfg = Dynamics(tau=1.0, omega=1.0, beta=0.0)
        state = np.array([1.0, 1.0])
        out = oist_step(state, np.array([1.0, 0.0]), cfg)
        expected = math.sqrt(2.0) * np.array([1.5, 1.0]) / np.linalg.norm([1.5, 1.0])
        assert np.allclose(out, expected, atol=1e-12)
        assert out[0] == pytest.approx(1.17670, abs=1e-5)
        assert out[1] == pytest.approx(0.78446, abs=1e-5)

    def test_norm_invariant(self):
        p = 64
        cfg = Dynamics(tau=0.5, omega=1.0, beta=0.27)
        rng = make_rng(3)
        state = math.sqrt(p) * _unit(rng.standard_normal(p))
        for _ in range(200):
            state = oist_step(state, rng.standard_normal(p), cfg)
            assert abs(np.sum(state ** 2) / p - 1.0) <= 1e-9

    def test_matches_reference_oja(self):
        # two-line reference recursion, update then normalize
        p = 16
        cfg = Dynamics(tau=0.8, omega=1.0, beta=0.0)
        rng = make_rng(4)
        x_ref = rng.standard_normal(p)
        x_ref *= math.sqrt(p) / np.linalg.norm(x_ref)
        state = x_ref.copy()
        for _ in range(50):
            y = rng.standard_normal(p)
            state = oist_step(state, y, cfg)
            x_tilde = x_ref + (cfg.tau / p) * y * (y @ x_ref)
            x_ref = math.sqrt(p) * x_tilde / np.linalg.norm(x_tilde)
            assert np.allclose(state, x_ref, atol=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.27], ids=["None", "threshold1"])
    def test_matches_one_sample_formula_exactly(self, beta):
        # the one-sample update as written in the module docstring, bit for bit
        p = 300
        cfg = Dynamics(tau=0.5, omega=1.0, beta=beta)
        rng = make_rng(5)
        x_ref = rng.standard_normal(p)
        state = x_ref.copy()
        for _ in range(40):
            y = rng.standard_normal(p)
            state = oist_step(state, y, cfg)
            shrunk = eta_map(x_ref + (cfg.tau / p) * (y @ x_ref) * y, beta, p)
            x_ref = shrunk * (math.sqrt(p) / np.linalg.norm(shrunk))
            assert np.array_equal(state, x_ref)

    def test_degenerate_state(self):
        p = 2
        beta = 0.5
        cfg = Dynamics(tau=1.0, omega=1.0, beta=beta)
        # coordinates exactly at the shrinkage magnitude vanish under eta
        state = np.array([beta / p, -beta / p])
        with pytest.raises(DegenerateStateError):
            oist_step(state, np.zeros(p), cfg)


class TestCosine:
    def test_aligned(self):
        x = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_hand_value(self):
        got = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_range_clipped(self):
        x = np.array([1e-8, 1.0])
        assert -1.0 <= cosine_similarity(x, x) <= 1.0

    def test_not_a_number_rejected(self):
        # clipping would report a NaN overlap as -1
        with pytest.raises(NumericError):
            cosine_similarity(np.array([math.nan, 1.0]), np.ones(2))


class TestJointHistogram:
    def test_point_masses(self):
        prior = Prior.two_point(0.25)
        a = prior.atom_values[1]
        signal = np.array([0.0, 0.0, 0.0, a])
        edges = np.linspace(-1.0, 11.0, 25)
        h0, ha = joint_histogram(np.array([1.0, 1.0, 1.0, 9.0]), signal, prior, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert (h0.sum(), ha.sum()) == (3, 1)
        assert centers[np.argmax(h0)] == pytest.approx(1.0, abs=0.5)
        assert centers[np.argmax(ha)] == pytest.approx(9.0, abs=0.5)

    def test_mass_one(self):
        # every binned coordinate is counted once, under its own atom
        prior = Prior.two_point(0.05)
        signal = draw_signal(prior, 5000, make_rng(8))
        x = 3.0 * make_rng(9).standard_normal(5000)
        edges = default_bin_edges(0.05)
        counts = joint_histogram(x, signal, prior, edges)
        assert counts.shape == (2, len(edges) - 1)
        binned = (x >= edges[0]) & (x <= edges[-1])
        for atom, row in zip(prior.atom_values, counts, strict=True):
            assert row.sum() == np.sum(binned & (signal == atom))

    def test_matches_gaussian_density(self):
        # x ~ N(1/sqrt(2), 1/2) against the exact law: L1 <= 0.02 at 1e5
        # samples; sparser atoms scale as 1/sqrt(count)
        p = 100000
        prior = Prior.two_point(0.05)
        signal = draw_signal(prior, p, make_rng(10))
        rng = make_rng(11)
        x = 1.0 / math.sqrt(2.0) + math.sqrt(0.5) * rng.standard_normal(p)
        edges = default_bin_edges(0.05)
        widths = np.diff(edges)
        from scipy.special import ndtr

        cdf = ndtr((edges - 1.0 / math.sqrt(2.0)) / math.sqrt(0.5))
        mass_in_range = cdf[-1] - cdf[0]
        truth = np.diff(cdf) / widths / mass_in_range
        for counts in joint_histogram(x, signal, prior, edges):
            total = counts.sum()
            l1 = np.sum(np.abs(counts / (total * widths) - truth) * widths)
            assert l1 <= 0.02 * math.sqrt(100000 / total)

    def test_empty_atom_flagged(self):
        prior = Prior.two_point(0.5)
        a = prior.atom_values[1]
        signal = np.array([0.0, 0.0, 0.0, 0.0])
        counts = joint_histogram(np.ones(4), signal, prior, np.linspace(-1, 1, 5))
        assert prior.atom_values[1] == a
        assert counts[0].tolist() == [0, 0, 0, 4] and not counts[1].any()

    def test_bad_edges_rejected(self):
        prior = Prior.two_point(0.5)
        signal = np.zeros(4)
        with pytest.raises(ConfigError):
            joint_histogram(np.ones(4), signal, prior, np.array([0.0, 0.0, 1.0]))


class TestMisclassification:
    def test_perfect_recovery(self):
        prior = Prior.two_point(0.25)
        signal = draw_signal(prior, 1000, make_rng(12))
        assert misclassification_rate(signal, signal, theta=0.5) == 0.0

    def test_all_zero_estimate(self):
        prior = Prior.two_point(0.05)
        signal = np.repeat([0.0, prior.atom_values[1]], [95, 5])
        rate = misclassification_rate(np.zeros(100), signal, theta=1.0)
        assert rate == pytest.approx(0.05)

    def test_independent_estimate_rate(self):
        # symmetric x independent of xi: rate = (1-rho) P(|x|>th) + rho P(|x|<=th)
        p = 100000
        rho, theta = 0.05, 0.8
        prior = Prior.two_point(rho)
        signal = draw_signal(prior, p, make_rng(13))
        x = make_rng(14).standard_normal(p)
        from scipy.special import ndtr

        p_exceed = 2.0 * (1.0 - ndtr(theta))
        expected = (1 - rho) * p_exceed + rho * (1 - p_exceed)
        got = misclassification_rate(x, signal, theta)
        assert abs(got - expected) <= 0.01

    def test_bad_theta(self):
        prior = Prior.two_point(0.5)
        signal = np.zeros(4)
        with pytest.raises(ValueError):
            misclassification_rate(np.ones(4), signal, theta=0.0)


class TestRunTrajectory:
    def test_step_count(self):
        # floor(p * t) steps to the last record time, and the requested record grid
        prior = Prior.two_point(0.2)
        run = run_trajectory(
            prior,
            Dynamics(tau=0.5, omega=1.0, beta=0.0),
            p=50,
            seed=1,
            record_times=[0.0, 1.5],
            replicas=1,
        )
        assert np.array_equal(run.times, [0.0, 1.5])
        assert run.q_values.shape == (1, 2)
        assert run.replica_steps == 75

    def test_initial_overlap_concentration(self):
        # E[Q0] = sqrt(rho/2) for x0 ~ N(1/sqrt(2), 1/2)
        prior = Prior.two_point(0.05)
        run = run_trajectory(
            prior,
            Dynamics(tau=0.5, omega=1.0, beta=0.27),
            p=10000,
            seed=21,
            record_times=[0.0],
            replicas=8,
        )
        q0 = run.q_values[:, 0]
        assert np.all(np.abs(q0 - math.sqrt(0.05 / 2.0)) <= 0.03)

    def test_deterministic(self):
        prior = Prior.two_point(0.1)
        kwargs = dict(
            prior=prior,
            dynamics=Dynamics(tau=0.5, omega=1.0, beta=0.27),
            p=100,
            seed=77,
            record_times=[0.0, 1.0, 2.0],
            replicas=3,
        )
        a = run_trajectory(**kwargs)
        b = run_trajectory(**kwargs)
        assert np.array_equal(a.q_values, b.q_values)
        assert np.array_equal(a.misclass, b.misclass)
        assert np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_q_range_and_histogram_mass(self):
        prior = Prior.two_point(0.1)
        run = run_trajectory(
            prior,
            Dynamics(tau=0.5, omega=1.0, beta=0.27),
            p=500,
            seed=5,
            record_times=np.linspace(0, 3, 7),
            replicas=2,
        )
        assert np.all(run.q_values >= -1.0) and np.all(run.q_values <= 1.0)
        # each histogram counts at most the p coordinates, most of them in range
        assert run.histogram_counts.shape == (2, 7, 2, len(run.bin_edges) - 1)
        totals = run.histogram_counts.sum(axis=(2, 3))
        assert np.all((totals > 250) & (totals <= 500))

    def test_odd_symmetry(self):
        # negating x0 and xi jointly negates the trajectory pathwise; the
        # matched draws flip the sample (y = scale*c*xi + a flips when both
        # the spike and the noise flip)
        prior = Prior.two_point(0.2)
        p = 40
        cfg = Dynamics(tau=0.5, omega=1.0, beta=0.3)
        rng = make_rng(31)
        signal = draw_signal(prior, p, make_rng(32))
        x0 = 0.5 + rng.standard_normal(p)
        sample_rng = make_rng(33)
        state_a = x0.copy()
        state_b = -x0.copy()
        from oistlab import next_sample

        for _ in range(60):
            y = next_sample(signal, 1.0, sample_rng)
            state_a = oist_step(state_a, y, cfg)
            state_b = oist_step(state_b, -y, cfg)
            assert np.allclose(state_b, -state_a, atol=1e-12)

    def test_oja_matches_closed_form(self):
        # phi = 0 empirical overlap vs the analytic curve, 3 standard errors
        prior = Prior.two_point(0.05)
        p, n_rep = 2000, 20
        times = [0.0, 1.0, 5.0]
        q = run_trajectory(
            prior,
            Dynamics(tau=0.5, omega=1.0, beta=0.0),
            p=p,
            seed=2024,
            record_times=times,
            replicas=n_rep,
            n_workers=2,
        ).q_values
        mean, se = q.mean(axis=0), q.std(axis=0, ddof=1) / math.sqrt(n_rep)
        params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
        for j, t in enumerate(times[1:], start=1):
            predicted = closed_form_q(t, mean[0], params)
            assert abs(mean[j] - predicted) <= 3.0 * se[j], (t, mean[j], predicted, se[j])

    @pytest.mark.parametrize("beta", [0.0, 0.27], ids=["None", "threshold1"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_matches_step_by_step_replay(self, beta, n_workers):
        # the batched engine against one replica at a time through the
        # public one-sample API, on the same (seed, replica) streams; 4 rows
        # fit a batch at this p, so 9 replicas span several batches
        p = BATCH_ELEMENTS // 4
        prior = Prior.two_point(0.1)
        dynamics, seed = Dynamics(tau=0.5, omega=1.0, beta=beta), 17
        record_times = [0.0, 10 / p, 30 / p]
        run = run_trajectory(prior, dynamics, p, seed, record_times=record_times,
                             replicas=9, histogram_times=[10 / p, 30 / p],
                             n_workers=n_workers)
        edges, theta = default_bin_edges(prior.rho), default_theta(prior.rho)
        assert run.q_values.shape == (9, 3)
        for replica in range(9):
            rng = make_rng(seed, replica)
            signal = draw_signal(prior, p, rng)
            state = 1.0 / math.sqrt(2.0) + math.sqrt(0.5) * rng.standard_normal(p)
            q, mis, hists = [], [], []
            for k in range(31):
                if k:
                    state = oist_step(state, next_sample(signal, dynamics.omega, rng), dynamics)
                if k in (0, 10, 30):
                    q.append(cosine_similarity(state, signal))
                    mis.append(misclassification_rate(state, signal, theta))
                if k in (10, 30):
                    hists.append(joint_histogram(state, signal, prior, edges))
            assert np.array_equal(run.q_values[replica], q)
            assert np.array_equal(run.misclass[replica], mis)
            assert np.array_equal(run.histogram_counts[replica], hists)

    def test_replica_rows_and_fields(self):
        # row i of each array is replica i; no histogram time means no atoms
        prior = Prior.two_point(0.2)
        dynamics = Dynamics(tau=0.5, omega=1.0, beta=0.27)
        kwargs = dict(p=60, seed=3, record_times=[0.0, 0.5], replicas=3)
        run = run_trajectory(prior, dynamics, histogram_times=[0.5], **kwargs)
        assert (run.seed, run.replica_steps) == (3, 90)
        assert run.q_values.shape == run.misclass.shape == (3, 2)
        assert np.array_equal(run.atoms, prior.atom_values)
        assert run.histogram_counts.shape == (3, 1, 2, 101)
        assert run.histogram_counts.dtype.kind == "i"
        assert np.array_equal(run.histogram_times, [0.5])
        assert np.array_equal(run.bin_edges, default_bin_edges(0.2))
        assert run.steps_per_s > 0 and min(run.draw_s, run.update_s, run.record_s) >= 0
        bare = run_trajectory(prior, dynamics, histogram_times=[], **kwargs)
        assert bare.atoms.size == 0 and bare.histogram_counts.shape == (3, 0, 0, 101)
        assert np.array_equal(bare.q_values, run.q_values)

    @pytest.mark.parametrize("prior", [Prior.signed_two_point(0.2),
                                       Prior.bernoulli_gaussian(0.2)],
                             ids=["signed_two_point", "bernoulli_gaussian"])
    def test_zero_overlap_warns(self, prior):
        with pytest.warns(UserWarning, match="zero expected initial overlap"):
            run_trajectory(
                prior,
                Dynamics(tau=0.5, omega=1.0, beta=0.0),
                p=50,
                seed=1,
                record_times=[0.0],
                replicas=1,
                histogram_times=[],
            )

    def test_validation(self):
        prior = Prior.two_point(0.1)
        dynamics = Dynamics(tau=0.5, omega=1.0, beta=0.0)
        with pytest.raises(ConfigError):
            run_trajectory(prior, dynamics, 50, 1, record_times=[], replicas=1)
        with pytest.raises(ConfigError):
            run_trajectory(prior, dynamics, 50, 1, record_times=[-0.5], replicas=1)
        with pytest.raises(ConfigError):
            run_trajectory(prior, dynamics, 50, 1, record_times=[0.5], replicas=0)
        with pytest.raises(ConfigError):
            run_trajectory(prior, dynamics, 1, 1, record_times=[0.5], replicas=1)
        for bad in ([math.nan], [0.0, math.nan], [math.inf], [0.0, -math.inf]):
            with pytest.raises(ConfigError, match="^record_times"):
                run_trajectory(prior, dynamics, 50, 1, record_times=bad, replicas=1)
            with pytest.raises(ConfigError, match="^histogram_times"):
                run_trajectory(prior, dynamics, 50, 1, record_times=[0.5],
                               replicas=1, histogram_times=bad)

    @pytest.mark.parametrize("bad", [
        {"theta": math.nan}, {"theta": -1.0}, {"theta": math.inf},
        {"bin_edges": [1.0, 0.0]}, {"bin_edges": [0.0, math.nan, 1.0]},
        {"x0_spec": (0.7, math.nan)}, {"x0_spec": (math.inf, 0.5)},
        {"x0_spec": (math.nan, 0.5)}, {"x0_spec": (0.7, math.inf)},
    ], ids=["theta-nan", "theta-negative", "theta-inf", "edges-decreasing", "edges-nan",
            "x0-var-nan", "x0-mean-inf", "x0-mean-nan", "x0-var-inf"])
    def test_metric_and_start_inputs_refused_before_the_run(self, monkeypatch, bad):
        def run_chunk(*args):
            raise AssertionError("the replicas ran")

        monkeypatch.setattr(simulate, "_run_chunk", run_chunk)
        with pytest.raises(ConfigError):
            run_trajectory(Prior.two_point(0.1), Dynamics(tau=0.5, omega=1.0, beta=0.27),
                           50, 1, record_times=[0.0, 1.0], replicas=1, histogram_times=[5.0],
                           **bad)


def _unit(v):
    return v / np.linalg.norm(v)
