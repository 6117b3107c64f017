"""Tests for the GMM stop-threshold machinery (Sec 3.2)."""
import math

import numpy as np
import pytest

from repro.core import gmm


class TestErf:
    @pytest.mark.parametrize("x", [-3.0, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5])
    def test_matches_math_erf(self, x):
        assert gmm._erf(np.array([x]))[0] == pytest.approx(
            math.erf(x), abs=2e-7
        )

    def test_odd_function(self):
        x = np.linspace(0, 4, 50)
        assert np.allclose(gmm._erf(-x), -gmm._erf(x))


class TestFit:
    def _sample(self, mu1, s1, mu2, s2, w2=0.5, n=4000, seed=0):
        g = np.random.default_rng(seed)
        n2 = int(n * w2)
        return np.concatenate(
            [g.normal(mu1, s1, n - n2), g.normal(mu2, s2, n2)]
        )

    def test_recovers_separated_components(self):
        x = self._sample(0.0, 1.0, 10.0, 1.5)
        fit = gmm.fit_gmm_1d(x)
        assert fit.mu[0] == pytest.approx(0.0, abs=0.2)
        assert fit.mu[1] == pytest.approx(10.0, abs=0.3)
        assert fit.sigma[0] == pytest.approx(1.0, abs=0.2)
        assert fit.sigma[1] == pytest.approx(1.5, abs=0.3)
        assert fit.weights[0] == pytest.approx(0.5, abs=0.05)

    def test_component_order(self):
        x = self._sample(5.0, 1.0, -5.0, 1.0)
        fit = gmm.fit_gmm_1d(x)
        assert fit.mu[0] <= fit.mu[1]

    def test_unbalanced_weights(self):
        x = self._sample(0.0, 1.0, 8.0, 1.0, w2=0.2)
        fit = gmm.fit_gmm_1d(x)
        assert fit.weights[1] == pytest.approx(0.2, abs=0.05)

    def test_pdf_integrates_to_one(self):
        x = self._sample(0.0, 1.0, 6.0, 2.0)
        fit = gmm.fit_gmm_1d(x)
        grid = np.linspace(-10, 20, 4000)
        assert np.trapz(fit.pdf(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_cdf_limits(self):
        fit = gmm.fit_gmm_1d(self._sample(0, 1, 5, 1))
        assert fit.component_cdf(0, np.array([-50.0]))[0] == pytest.approx(0.0)
        assert fit.component_cdf(1, np.array([50.0]))[0] == pytest.approx(1.0)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            gmm.fit_gmm_1d(np.array([1.0]))


class TestExpectedPrf:
    def test_recall_decreasing_precision_increasing(self):
        fit = gmm.fit_gmm_1d(
            np.concatenate(
                [
                    np.random.default_rng(1).normal(0, 1, 2000),
                    np.random.default_rng(2).normal(8, 1, 2000),
                ]
            )
        )
        s = np.linspace(-2, 10, 100)
        p, r, f1 = gmm.expected_prf(fit, s)
        assert np.all(np.diff(r) <= 1e-9)
        assert np.all(np.diff(p) >= -1e-6)
        assert f1.max() <= 1.0

    def test_f1_peaks_between_components(self):
        fit = gmm.Gmm1D(
            weights=np.array([0.5, 0.5]),
            mu=np.array([0.0, 10.0]),
            sigma=np.array([1.0, 1.0]),
        )
        s = np.linspace(-3, 13, 400)
        _, _, f1 = gmm.expected_prf(fit, s)
        peak = s[np.argmax(f1)]
        assert 0.0 < peak < 10.0


class TestSelectThreshold:
    def test_separates_planted_mixture(self):
        g = np.random.default_rng(5)
        fp = g.normal(1.0, 0.5, 300)
        tp = g.normal(8.0, 1.0, 300)
        res = gmm.select_stop_threshold(np.concatenate([fp, tp]))
        assert 2.5 < res.threshold < 6.5
        kept_tp = (tp > res.threshold).mean()
        dropped_fp = (fp <= res.threshold).mean()
        assert kept_tp > 0.95
        assert dropped_fp > 0.95
        # the paper's R(s) = c2·(1−F2(s)) keeps the component weight, so
        # perfect separation peaks at 2·c2/(1+c2) (= 2/3 for c2 = 0.5)
        assert res.expected_f1 == pytest.approx(2 * 0.5 / 1.5, abs=0.02)

    def test_degenerate_constant_scores(self):
        res = gmm.select_stop_threshold(np.full(10, 3.0))
        assert res.threshold == -np.inf  # accept everything
        assert (res.bimodal, res.separation) == (False, 0.0)
        # no mixture is fitted, so no model predicts the F1 of keeping
        # every link
        assert math.isnan(res.expected_f1)

    def test_tiny_input(self):
        res = gmm.select_stop_threshold(np.array([1.0, 2.0]))
        assert res.threshold == -np.inf
        assert not res.bimodal
        assert math.isnan(res.expected_f1)

    def test_unimodal_cluster_not_thresholded(self):
        # BIC guard: one tight cluster (e.g. all-true matches after LSH
        # pruning) must not be cut
        g = np.random.default_rng(0)
        res = gmm.select_stop_threshold(g.normal(600.0, 20.0, 18))
        assert res.threshold == -np.inf
        # a mixture was fitted, and BIC rejected it, so its F1 curve
        # predicts nothing
        assert not res.bimodal and np.isfinite(res.separation)
        assert math.isnan(res.expected_f1)

    def test_bic_guard_allows_bimodal(self):
        g = np.random.default_rng(4)
        x = np.concatenate([g.normal(10, 5, 30), g.normal(600, 30, 30)])
        res = gmm.select_stop_threshold(x)
        assert np.isfinite(res.threshold)
        assert 30 < res.threshold < 550
        assert res.bimodal

    def test_separation_reported(self):
        g = np.random.default_rng(6)
        x = np.concatenate([g.normal(0, 1, 100), g.normal(10, 1, 100)])
        res = gmm.select_stop_threshold(x)
        assert res.separation == pytest.approx(5.0, abs=1.0)

    def test_threshold_within_score_range(self):
        g = np.random.default_rng(9)
        x = np.concatenate([g.normal(0, 1, 100), g.normal(5, 1, 100)])
        res = gmm.select_stop_threshold(x)
        assert x.min() <= res.threshold <= x.max()
