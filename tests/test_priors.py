import math

import numpy as np
import pytest

from oistlab import (
    ConfigError,
    Prior,
    discretize_prior,
    draw_samples,
    draw_signal,
    next_sample,
)
from oistlab.priors import make_rng


class TestPrior:
    def test_two_point_atoms(self):
        prior = Prior.two_point(0.05)
        assert prior.atoms == ((0.0, 0.95), (1.0 / math.sqrt(0.05), 0.05))

    def test_signed_two_point_atoms(self):
        prior = Prior.signed_two_point(0.05)
        peak = 1.0 / math.sqrt(0.05)
        assert prior.atoms == ((-peak, 0.025), (0.0, 0.95), (peak, 0.025))
        assert prior.mean == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.02, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("factory", [Prior.two_point, Prior.signed_two_point])
    def test_discrete_invariants(self, factory, rho):
        prior = factory(rho)
        w = prior.atom_weights
        v = prior.atom_values
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(np.sum(w * v * v) - 1.0) <= 1e-10

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            Prior(rho=0.5, atoms=((0.0, 0.6), (2.0, 0.3)))

    def test_bad_second_moment_rejected(self):
        with pytest.raises(ConfigError):
            Prior(rho=0.5, atoms=((0.0, 0.5), (1.0, 0.5)))

    def test_rho_contradicting_atoms_rejected(self):
        # default_theta reads rho, so a wrong one moves the support threshold
        with pytest.raises(ConfigError, match="^prior rho is 0.5, but its nonzero atoms"):
            Prior(0.5, Prior.two_point(0.05).atoms)
        assert Prior(0.05, Prior.two_point(0.05).atoms) == Prior.two_point(0.05)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            Prior.two_point(0.0)
        with pytest.raises(ConfigError):
            Prior.two_point(1.2)

    def test_from_atoms_derives_rho(self):
        prior = Prior.from_atoms([(0.0, 0.75), (2.0, 0.25)])
        assert prior.rho == pytest.approx(0.25)


class TestDrawSignal:
    def test_rho_one_degenerate(self):
        signal = draw_signal(Prior.two_point(1.0), 4, make_rng(0))
        assert np.array_equal(signal, np.ones(4))

    def test_two_point_counts_and_values(self):
        rho, p = 0.05, 10000
        signal = draw_signal(Prior.two_point(rho), p, make_rng(123))
        nonzero = signal[signal != 0.0]
        assert np.allclose(nonzero, 1.0 / math.sqrt(rho))
        # binomial concentration: 500 +- 5*sqrt(p*rho*(1-rho)) ~ 109
        slack = 5 * math.sqrt(p * rho * (1 - rho))
        assert abs(nonzero.size - p * rho) <= slack

    def test_deterministic_given_seed(self):
        prior = Prior.two_point(0.05)
        a = draw_signal(prior, 1000, make_rng(9))
        b = draw_signal(prior, 1000, make_rng(9))
        assert np.array_equal(a, b)
        c = draw_signal(prior, 1000, make_rng(10))
        assert not np.array_equal(a, c)

    def test_second_moment_concentrates(self):
        prior = Prior.two_point(0.05)
        means = [np.mean(draw_signal(prior, 10000, make_rng(s)) ** 2) for s in range(100)]
        assert abs(np.mean(means) - 1.0) <= 0.02

    def test_norm_concentration_per_draw(self):
        # |(||xi||^2 / p) - 1| <= 5 sqrt(Var(xi^2)/p) for large p
        rho, p = 0.05, 10000
        prior = Prior.two_point(rho)
        var_xi2 = 1.0 / rho - 1.0
        bound = 5.0 * math.sqrt(var_xi2 / p)
        for seed in range(20):
            signal = draw_signal(prior, p, make_rng(seed))
            assert abs(np.mean(signal ** 2) - 1.0) <= bound

    def test_bernoulli_gaussian_support(self):
        prior = Prior.bernoulli_gaussian(0.3)
        signal = draw_signal(prior, 20000, make_rng(5))
        frac = np.mean(signal != 0.0)
        assert abs(frac - 0.3) <= 0.02
        assert abs(np.mean(signal ** 2) - 1.0) <= 0.05

    def test_small_p_rejected(self):
        with pytest.raises(ConfigError):
            draw_signal(Prior.two_point(0.5), 1, make_rng(0))


class TestNextSample:
    def test_zero_snr_is_pure_noise(self):
        signal = draw_signal(Prior.two_point(0.5), 4, make_rng(1))
        rng = make_rng(2)
        ys = draw_samples(signal, 0.0, rng, 100000)
        cov = ys.T @ ys / ys.shape[0]
        assert np.max(np.abs(cov - np.eye(4))) <= 0.05

    def test_population_covariance(self):
        signal = draw_signal(Prior.two_point(0.5), 4, make_rng(3))
        rng = make_rng(4)
        ys = draw_samples(signal, 1.0, rng, 1000000)
        cov = ys.T @ ys / ys.shape[0]
        target = np.eye(4) + np.outer(signal, signal) / 4.0
        assert np.max(np.abs(cov - target)) <= 0.01

    def test_forced_draws(self):
        class StubRng:
            def standard_normal(self, size=None):
                return 1.0 if size is None else np.zeros(size)

        signal = draw_signal(Prior.two_point(0.5), 4, make_rng(1))
        y = next_sample(signal, 1.0, StubRng())
        assert np.allclose(y, np.sqrt(1.0 / 4.0) * signal)

    def test_unbiased(self):
        signal = draw_signal(Prior.two_point(0.5), 4, make_rng(6))
        rng = make_rng(7)
        ys = draw_samples(signal, 1.0, rng, 100000)
        assert np.linalg.norm(ys.mean(axis=0)) <= 0.05 * 2.0

    def test_negative_snr_rejected(self):
        signal = draw_signal(Prior.two_point(0.5), 4, make_rng(1))
        with pytest.raises(ConfigError):
            next_sample(signal, -0.1, make_rng(0))


class TestDiscretizePrior:
    def test_discrete_passthrough(self):
        prior = Prior.two_point(0.05)
        assert discretize_prior(prior, 10) is prior

    def test_bernoulli_gaussian_second_moment(self):
        out = discretize_prior(Prior.bernoulli_gaussian(0.5), 10)
        w, v = out.atom_weights, out.atom_values
        assert abs(np.sum(w * v * v) - 1.0) <= 1e-8
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_single_node_inadequate(self):
        with pytest.raises(ConfigError):
            discretize_prior(Prior.bernoulli_gaussian(0.5), 1)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigError):
            discretize_prior(Prior.bernoulli_gaussian(0.5), 0)

    def test_odd_node_count_merges_zero(self):
        out = discretize_prior(Prior.bernoulli_gaussian(0.2), 21)
        values = out.atom_values
        assert np.sum(values == 0.0) == 1
