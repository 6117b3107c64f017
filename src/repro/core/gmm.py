"""Automated linkage stop threshold via a 1-D 2-component GMM (Sec 3.2).

After full matching, the matched-edge weights are assumed to be a
mixture of a low-scoring false-positive component (m1) and a
high-scoring true-positive component (m2). We fit the mixture with EM
(numpy; scipy/sklearn are unavailable offline), then choose the
threshold s* maximizing the *model-expected* F1:

``R(s) = c2·(1 − F_m2(s))``,
``P(s) = R(s) / (R(s) + c1·(1 − F_m1(s)))``,
``F1(s) = 2·P·R/(P+R)``,   ``s* = argmax_s F1(s)``.

(The paper's text says argmin — an evident typo, as its own Figure 2
marks the threshold between the two components where expected F1
peaks.) Only links scoring above s* are reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fewer matched-edge weights than this fit no mixture: every link is kept
MIN_FIT_WEIGHTS = 4
EM_MAX_ITER = 200  # EM rounds, at most
EM_TOL = 1e-8  # relative log-likelihood change that stops EM
THRESHOLD_GRID = 512  # evenly spaced candidate thresholds over the weights' range


@dataclass(frozen=True)
class Gmm1D:
    """A fitted two-component 1-D Gaussian mixture.

    Components are ordered so ``mu[1] >= mu[0]``: component 0 models
    false positives, component 1 true positives.
    """

    weights: np.ndarray  # (2,)
    mu: np.ndarray  # (2,)
    sigma: np.ndarray  # (2,)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)[..., None]
        z = (x - self.mu) / self.sigma
        comp = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi))
        return (comp * self.weights).sum(axis=-1)

    def component_cdf(self, k: int, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - self.mu[k]) / (
            self.sigma[k] * math.sqrt(2)
        )
        return 0.5 * (1.0 + _erf(z))


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (Abramowitz–Stegun 7.1.26, |err|<1.5e-7)."""
    x = np.asarray(x, dtype=np.float64)
    sign = np.sign(x)
    a = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * a)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-a * a))


def fit_gmm_1d(x: np.ndarray) -> Gmm1D:
    """EM fit of a 2-component 1-D GMM, initialized by a median split."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit a 2-component GMM")
    lo, hi = x[x <= np.median(x)], x[x > np.median(x)]
    if hi.size == 0:  # all values identical-ish; perturb split
        lo, hi = x[: x.size // 2], x[x.size // 2 :]
    span = max(x.std(), 1e-6)
    mu = np.array([lo.mean(), hi.mean()], dtype=np.float64)
    sigma = np.array(
        [max(lo.std(), 1e-3 * span), max(hi.std(), 1e-3 * span)], dtype=np.float64
    )
    w = np.array([lo.size, hi.size], dtype=np.float64) / x.size
    ll_prev = -np.inf
    for _ in range(EM_MAX_ITER):
        z = (x[:, None] - mu) / sigma
        log_comp = -0.5 * z * z - np.log(sigma * math.sqrt(2 * math.pi)) + np.log(w)
        m = log_comp.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(log_comp - m).sum(axis=1))
        resp = np.exp(log_comp - lse[:, None])
        nk = resp.sum(axis=0) + 1e-12
        w = nk / x.size
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu) ** 2).sum(axis=0) / nk
        sigma = np.sqrt(np.maximum(var, (1e-3 * span) ** 2))
        ll = lse.sum()
        if abs(ll - ll_prev) < EM_TOL * (abs(ll_prev) + 1.0):
            break
        ll_prev = ll
    order = np.argsort(mu)
    return Gmm1D(weights=w[order], mu=mu[order], sigma=sigma[order])


def expected_prf(gmm: Gmm1D, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model-expected (precision, recall, F1) at threshold(s) ``s``."""
    c1, c2 = gmm.weights
    fp = c1 * (1.0 - gmm.component_cdf(0, s))
    r = c2 * (1.0 - gmm.component_cdf(1, s))
    p = np.where(r + fp > 0, r / (r + fp), 0.0)
    denom = np.where(p + r > 0, p + r, 1.0)
    f1 = np.where(p + r > 0, 2 * p * r / denom, 0.0)
    return p, r, f1


@dataclass(frozen=True)
class StopThreshold:
    """Result of automated threshold selection.

    ``separation`` is the normalized gap between the fitted components,
    ``(μ2 − μ1)/(σ1 + σ2)``. ``bimodal`` is True only when the threshold
    comes from the fitted mixture. With too few or all-equal weights, or
    when BIC prefers one Gaussian, the mixture assumption (distinguishable
    TP and FP clusters, Sec 3.2) does not hold: no threshold is applied
    (``threshold = −inf``), ``bimodal`` is False and ``expected_f1`` is
    NaN, since no model predicts the F1 of keeping every link.
    """

    threshold: float
    gmm: Gmm1D
    expected_f1: float
    separation: float
    bimodal: bool


def _bic_prefers_two_components(x: np.ndarray, gmm: Gmm1D) -> bool:
    """BIC model selection: does a 2-component mixture beat 1 Gaussian?

    2 components spend 5 parameters, a single Gaussian 2; if the single
    Gaussian explains the weights just as well, the sample is unimodal
    and any threshold would cut an arbitrary slice off one cluster.
    """
    n = x.size
    ll2 = float(np.log(np.maximum(gmm.pdf(x), 1e-300)).sum())
    mu, sigma = x.mean(), max(x.std(), 1e-9)
    z = (x - mu) / sigma
    ll1 = float((-0.5 * z * z - math.log(sigma * math.sqrt(2 * math.pi))).sum())
    bic2 = 5 * math.log(n) - 2 * ll2
    bic1 = 2 * math.log(n) - 2 * ll1
    return bic2 < bic1


def select_stop_threshold(weights: np.ndarray) -> StopThreshold:
    """Fit the GMM on matched-edge weights and pick s* = argmax F1(s).

    Deviation from the paper (documented in DESIGN.md): the matched-edge
    weights may form a *single* cluster — e.g. after aggressive LSH
    pruning leaves almost only true pairs — in which case the bimodal
    assumption of Sec 3.2 fails and thresholding would cut an arbitrary
    slice off the cluster. We detect this with a BIC test (2-component
    mixture vs single Gaussian) and keep every matched link when the
    single Gaussian wins. The paper's 30k-entity runs always contain
    enough false matches for the bimodal assumption to hold.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size < MIN_FIT_WEIGHTS or np.ptp(weights) == 0:
        # degenerate: nothing to separate; accept everything
        g = Gmm1D(
            weights=np.array([0.5, 0.5]),
            mu=np.array([weights.min() if weights.size else 0.0] * 2),
            sigma=np.array([1.0, 1.0]),
        )
        return StopThreshold(threshold=-np.inf, gmm=g, expected_f1=math.nan, separation=0.0, bimodal=False)
    gmm = fit_gmm_1d(weights)
    sep = float((gmm.mu[1] - gmm.mu[0]) / (gmm.sigma[0] + gmm.sigma[1]))
    if not _bic_prefers_two_components(weights, gmm):
        return StopThreshold(threshold=-np.inf, gmm=gmm, expected_f1=math.nan, separation=sep, bimodal=False)
    grid = np.linspace(weights.min(), weights.max(), THRESHOLD_GRID)
    _, _, f1 = expected_prf(gmm, grid)
    best = int(np.argmax(f1))
    return StopThreshold(
        threshold=float(grid[best]),
        gmm=gmm,
        expected_f1=float(f1[best]),
        separation=sep,
        bimodal=True,
    )
