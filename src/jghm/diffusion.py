"""Conditional image generation by discretizing the localization SDE.

The sampler integrates dY = m(Y, t) dt + dW with the exact conditional
denoiser as drift; Y_T / T approaches a draw from P(x_im | x_tx) smoothed by
N(0, 1/T) noise. Rounding to the state grid bridges to the discrete law for
total-variation comparison against the enumeration oracle.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bp import conditioned_denoiser
from .model import JghmModel, ModelError
from .oracle import DEFAULT_BUDGET, encode_leaves, enumerate_joint
from .metrics import RiskReport
from .rng import stream
from .sampler import NoisyImage

__all__ = ["SdeConfig", "sample_image_sde", "round_to_states", "sampled_law", "law_distance",
           "sampled_law_distance"]

TRAJ_CHUNK = 2048


@dataclass(frozen=True)
class SdeConfig:
    """Integration grid and trajectory budget for the sampling SDE."""

    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        for name, v in (("horizon", self.horizon), ("dt", self.dt)):
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not (
                    math.isfinite(v) and v > 0):
                raise ModelError(f"{name} must be a finite real > 0, got {v!r}")
        if isinstance(self.n_paths, bool) or not isinstance(self.n_paths, numbers.Integral) \
                or self.n_paths < 1:
            raise ModelError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        steps = self.horizon / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ModelError(f"horizon/dt = {steps!r} must be integral within 1e-9")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def sample_image_sde(model: JghmModel, x_tx: np.ndarray, cfg: SdeConfig,
                     drift_model: JghmModel = None, drift_fn=None) -> np.ndarray:
    """Euler scheme Y_{k+1} = Y_k + m(Y_k, k dt) dt + sqrt(dt) xi_k, Y_0 = 0.

    Returns Y_T / T per trajectory, shape (n_paths, d_im). The drift is the
    exact denoiser of `drift_model` (default: the data model), bound to
    `x_tx` once per run; `drift_fn` overrides it entirely (test hook, e.g.
    zero drift).
    """
    if drift_fn is None:
        denoise = conditioned_denoiser(drift_model if drift_model is not None else model, x_tx)

        def drift_fn(z, t):
            return denoise(NoisyImage(t=t, z=z))

    d = model.topology.d_im
    sqrt_dt = math.sqrt(cfg.dt)
    out = np.empty((cfg.n_paths, d))
    for chunk, lo in enumerate(range(0, cfg.n_paths, TRAJ_CHUNK)):
        hi = min(lo + TRAJ_CHUNK, cfg.n_paths)
        rng = stream(cfg.seed, "sde-noise", chunk)
        y = np.zeros((hi - lo, d))
        for k in range(cfg.n_steps):
            m = drift_fn(y, k * cfg.dt)
            y = y + m * cfg.dt + sqrt_dt * rng.standard_normal(y.shape)
            if not np.all(np.isfinite(y)):
                raise ModelError(f"non-finite trajectory state at step {k}")
        out[lo:hi] = y / cfg.horizon
    return out


def round_to_states(samples: np.ndarray, n_states: int) -> np.ndarray:
    """Nearest state in {1..S}, clamped at the ends; exact .5 ties round to
    the lower state."""
    r = np.ceil(np.asarray(samples, dtype=float) - 0.5).astype(np.int64)
    return np.clip(r, 1, n_states)


def sampled_law(model: JghmModel, x_tx: np.ndarray, cfg: SdeConfig,
                drift_model: JghmModel = None, budget: int = DEFAULT_BUDGET):
    """One SDE run rounded to the state grid, with its exact target.

    Returns (counts, cond): the number of trajectories ending at each image
    tuple (integer, in enumeration order) and the exact conditional
    P(x_im | x_tx) over the same tuples.
    """
    table = enumerate_joint(model, budget)
    col = table.joint[:, table.index("tx", x_tx)]
    if col.sum() == 0:
        raise ModelError("conditioning text has zero probability")
    cond = col / col.sum()
    rounded = round_to_states(sample_image_sde(model, x_tx, cfg, drift_model=drift_model),
                              model.n_states)
    return np.bincount(encode_leaves(rounded, model.n_states), minlength=len(cond)), cond


def law_distance(counts: np.ndarray, cond: np.ndarray, cfg: SdeConfig,
                 drift_model: JghmModel = None, n_bootstrap: int = 200) -> RiskReport:
    """Total variation between the empirical law of `counts` and `cond`; the
    standard error is a multinomial bootstrap."""
    counts = np.asarray(counts, dtype=float)
    emp = counts / counts.sum()
    tv = 0.5 * float(np.abs(emp - cond).sum())

    resampled = stream(cfg.seed, "tv-bootstrap").multinomial(cfg.n_paths, emp, size=n_bootstrap)
    boot = 0.5 * np.abs(resampled / cfg.n_paths - cond).sum(axis=1)
    se = float(boot.std(ddof=1))
    meta = {
        "t": cfg.horizon,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "drift": "exact" if drift_model is None else "misspecified",
    }
    return RiskReport("sde_tv", tv, se, cfg.n_paths, meta)


def sampled_law_distance(model: JghmModel, x_tx: np.ndarray, cfg: SdeConfig,
                         drift_model: JghmModel = None, budget: int = DEFAULT_BUDGET,
                         n_bootstrap: int = 200) -> RiskReport:
    """Total variation between the rounded SDE output law and the exact
    conditional P(x_im | x_tx); the standard error is a multinomial bootstrap."""
    counts, cond = sampled_law(model, x_tx, cfg, drift_model, budget)
    return law_distance(counts, cond, cfg, drift_model, n_bootstrap)
