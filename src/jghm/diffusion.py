"""Conditional image generation by discretizing the localization SDE.

The sampler integrates dY = m(Y, t) dt + dW with the exact conditional
denoiser as drift; Y_T / T approaches a draw from P(x_im | x_tx) smoothed by
N(0, 1/T) noise. Rounding to the state grid bridges to the discrete law for
total-variation comparison against the enumeration oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bp import _image_drift, root_log_posterior
from .model import JghmModel, ModelError, _count, _real, _seed
from .oracle import encode_leaves, enumerate_joint
from .metrics import RiskReport, _monte_carlo
from .rng import stream

__all__ = ["SdeConfig", "sample_image_sde", "round_to_states", "sampled_law", "law_distance"]

TRAJ_CHUNK = 2048
N_BOOTSTRAP = 200  # multinomial resamples behind the standard error of law_distance


@dataclass(frozen=True)
class SdeConfig:
    """Integration grid and trajectory budget for the sampling SDE."""

    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        for name in ("horizon", "dt"):
            v = _real(getattr(self, name), what=name)
            if v <= 0:
                raise ModelError(f"{name} must be a finite real > 0, got {v!r}")
        _count(self.n_paths, what="n_paths")
        _seed(self.seed, what="seed")
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
    exact denoiser of `drift_model` (default: the data model), bound to it
    and `x_tx` once per run, when x_tx and the image size are checked; each
    step then runs only BP arithmetic and checks that Y stays finite, which
    is all the drift needs of its input. `drift_fn(z, t)` overrides the
    drift entirely (test hook, e.g. zero drift). Trajectories run in chunks
    of TRAJ_CHUNK through `metrics._monte_carlo`; chunk c draws its noise
    from the stream (seed, "sde-noise", c).
    """
    d = model.topology.d_im
    if drift_fn is None:
        drift_model = model if drift_model is None else drift_model
        if drift_model.topology.d_im != d:
            raise ModelError(f"the drift model has {drift_model.topology.d_im} image leaves, "
                             f"the data model {d}")
        drift_fn = _image_drift(drift_model, x_tx)

    sqrt_dt = math.sqrt(cfg.dt)

    def paths(chunk, B):
        rng = stream(cfg.seed, "sde-noise", chunk)
        y = np.zeros((B, d))
        for k in range(cfg.n_steps):
            m = drift_fn(y, k * cfg.dt)
            y = y + m * cfg.dt + sqrt_dt * rng.standard_normal(y.shape)
            if not np.isfinite(y).all():
                raise ModelError(f"non-finite trajectory state at step {k}")
        return y / cfg.horizon

    return _monte_carlo(cfg.n_paths, paths, TRAJ_CHUNK)


def round_to_states(samples: np.ndarray, n_states: int) -> np.ndarray:
    """Nearest state in {1..S}, clamped at the ends; exact .5 ties round to
    the lower state."""
    r = np.ceil(np.asarray(samples, dtype=float) - 0.5).astype(np.int64)
    return np.clip(r, 1, n_states)


def sampled_law(model: JghmModel, x_tx: np.ndarray, cfg: SdeConfig,
                drift_model: JghmModel = None):
    """One SDE run rounded to the state grid, with its exact target.

    Returns (counts, cond): the number of trajectories ending at each image
    tuple (integer, in enumeration order) and the exact conditional
    P(x_im | x_tx) over the same tuples. Raises ModelError before the SDE
    starts if the data model or the drift model gives x_tx zero probability,
    and BudgetExceeded if the model is too large to enumerate.
    """
    table = enumerate_joint(model)
    col = table.joint[:, table.index("tx", x_tx)]
    if col.sum() == 0:
        raise ModelError("conditioning text has zero probability")
    if drift_model is not None:
        try:
            root_log_posterior(drift_model, "tx", x_tx)  # raises where P(x_tx) = 0
        except ModelError as e:
            raise ModelError("the drift (train) model gives the conditioning text zero probability") from e
    cond = col / col.sum()
    rounded = round_to_states(sample_image_sde(model, x_tx, cfg, drift_model=drift_model),
                              model.n_states)
    return np.bincount(encode_leaves(rounded, model.n_states), minlength=len(cond)), cond


def law_distance(counts: np.ndarray, cond: np.ndarray, cfg: SdeConfig,
                 drift_model: JghmModel = None) -> RiskReport:
    """Total variation between the empirical law of `counts` and `cond`; the
    standard error is a multinomial bootstrap."""
    counts = np.asarray(counts, dtype=float)
    emp = counts / counts.sum()
    tv = 0.5 * float(np.abs(emp - cond).sum())

    resampled = stream(cfg.seed, "tv-bootstrap").multinomial(cfg.n_paths, emp, size=N_BOOTSTRAP)
    boot = 0.5 * np.abs(resampled / cfg.n_paths - cond).sum(axis=1)
    se = float(boot.std(ddof=1))
    meta = {
        "t": cfg.horizon,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "drift": "exact" if drift_model is None else "misspecified",
    }
    return RiskReport("sde_tv", tv, se, cfg.n_paths, meta)
