"""Time-location bin proximity (paper Eq. 1).

``P(e, i) = T(e, i) · log2(2 − min(d(e.c, i.c)/R, 2))`` where

* ``T`` is 1 iff the bins share a temporal window (enforced upstream by
  only pairing bins within the same window),
* ``d`` is the minimum geographical distance between the two cells, and
* ``R = |w| · α`` is the *runaway distance* — the farthest an entity
  can travel within one window at maximum speed α.

P is 1 for identical cells, decays to 0 at distance R, and goes negative
beyond R (the *alibi* region), approaching −∞ at 2R. We clamp the log
argument at ``ALIBI_FLOOR_ARG`` so an alibi contributes a large finite
penalty (≈ −20) instead of −inf, which would poison sums under IEEE
arithmetic while carrying no extra information.
"""
from __future__ import annotations

import numpy as np

#: paper default maximum entity speed: 2 km/minute (US highway-ish)
DEFAULT_ALPHA_M_PER_SEC = 2000.0 / 60.0

#: floor for the log2 argument — caps a single alibi at log2(1e-6) ≈ −19.9
ALIBI_FLOOR_ARG = 1e-6


def runaway_distance_m(
    window_sec: float, alpha_m_per_sec: float = DEFAULT_ALPHA_M_PER_SEC
) -> float:
    """R = window width × maximum speed, in metres."""
    if window_sec <= 0 or alpha_m_per_sec <= 0:
        raise ValueError(f"window ({window_sec} s) and alpha ({alpha_m_per_sec} m/s) must be positive")
    return float(window_sec) * float(alpha_m_per_sec)


def proximity(d_m: np.ndarray, runaway_m: float) -> np.ndarray:
    """Vectorized Eq. 1 for same-window bin pairs (T = 1).

    ``d_m`` is the min inter-cell distance in metres. Returns values in
    (−∞-capped, 1]: 1 at d=0, 0 at d=R, negative (alibi) for d>R.
    """
    ratio = np.minimum(np.asarray(d_m, dtype=np.float64) / runaway_m, 2.0)
    return np.log2(np.maximum(2.0 - ratio, ALIBI_FLOOR_ARG))


def is_alibi(d_m: np.ndarray, runaway_m: float) -> np.ndarray:
    """Boolean mask: pair distance exceeds the runaway distance."""
    return np.asarray(d_m, dtype=np.float64) > runaway_m
