"""Leaf-to-vector encoders and similarity scores built on exact inference.

An encoder maps a batch of leaf tuples to finite real vectors and declares a
quantization precision; downstream sufficiency computations group inputs into
fibers by exact equality of the quantized outputs.

Scores are log-bilinear in transforms of the two root posteriors:
score(x_im, x_tx) = log <im(P(s | x_im)), tx(P(s | x_tx))>. Dividing one
side by the prior (the canonical separator features) makes this form exactly
the pointwise mutual information; the lossy variant merges root states
first. Encoders apply the same named transforms.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bp import downsweep, evidence_from_states, root_posterior
from .model import JghmModel, ModelError, _integer, by_modality

__all__ = [
    "Encoder",
    "BilinearScore",
    "canonical_encoder",
    "coarsened_root_encoder",
    "constant_encoder",
    "prefix_text_encoder",
    "exact_score",
    "coarsened_score",
    "constant_score",
]

DEFAULT_PRECISION = 12
MERGE = (1, 2)  # the root states the coarsened encoder and score pool


@dataclass(frozen=True)
class Encoder:
    """Deterministic map from leaf tuples to quantized feature vectors."""

    name: str
    fn: callable
    precision: int = DEFAULT_PRECISION

    def __call__(self, leaves: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(leaves)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ModelError(f"encoder {self.name} produced non-finite output")
        return np.round(out, self.precision)


def _over_prior(p: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Separator features P(s | leaves) / P(s) from a root posterior."""
    return p / prior


def _merge_posterior(p: np.ndarray) -> np.ndarray:
    """Posterior with the MERGE states pooled into one leading state."""
    merged_col = p[..., [m - 1 for m in MERGE]].sum(axis=-1, keepdims=True)
    keep = [s for s in range(p.shape[-1]) if s + 1 not in MERGE]
    out = np.concatenate([merged_col, p[..., keep]], axis=-1)
    return out / out.sum(axis=-1, keepdims=True)


def canonical_encoder(model: JghmModel, modality: str) -> Encoder:
    """Separator features P(s | leaves) / P(s): the exact sufficient encoder.

    The prior-weighted inner product of the two modalities' outputs equals
    exp(optimal score).
    """

    def fn(leaves):
        return _over_prior(root_posterior(model, modality, leaves), model.root_prior)

    return Encoder(name=f"canonical-{modality}", fn=fn)


def coarsened_root_encoder(model: JghmModel, modality: str, precision: int = 1) -> Encoder:
    """Posterior with the MERGE states collapsed into one, reported at coarse
    resolution. The merge alone rarely collides distinct posteriors on
    generic models, so the low default precision is what makes this encoder
    genuinely lossy (0 < Suff < MI)."""

    def fn(leaves):
        return _merge_posterior(root_posterior(model, modality, leaves))

    return Encoder(name=f"coarsened-{modality}", fn=fn, precision=precision)


def constant_encoder(model: JghmModel, modality: str) -> Encoder:
    """Carries no information: every input maps to the same vector."""

    def fn(leaves):
        leaves = np.asarray(leaves)
        return np.ones(leaves.shape[:-1] + (1,))

    return Encoder(name=f"constant-{modality}", fn=fn)


def prefix_text_encoder(model: JghmModel, n_observed: int = None) -> Encoder:
    """Root posterior computed from only the first n_observed text tokens
    (d_tx // 2, at least 1, by default). An n_observed that is not an
    integer in [1, d_tx] (bools and floats included) raises ModelError."""
    d = model.topology.d_tx
    k = max(1, d // 2) if n_observed is None else n_observed
    if not _integer(k) or not 1 <= k <= d:
        raise ModelError(f"n_observed must be an integer in [1, {d}], got {k!r}")

    def fn(leaves):
        leaves = np.asarray(leaves)
        ev = np.zeros(leaves.shape[:-1] + (d, model.n_states))
        ev[..., :k, :] = evidence_from_states(leaves[..., :k], model.n_states)
        h0 = downsweep(model, "tx", ev, prior_mode="split").h[0][..., 0, :]
        p = np.exp(h0)
        return p / p.sum(axis=-1, keepdims=True)

    return Encoder(name=f"prefix-tx-{k}", fn=fn)


@dataclass(frozen=True)
class BilinearScore:
    """score(x_im, x_tx) = log <im(p_im), tx(p_tx)>, optionally clamped to
    [-clamp, clamp], where p_im and p_tx are the root posteriors of `model`
    given each modality's leaves and `im`/`tx` map them to nonnegative
    feature vectors.

    Without a model the posterior is a point mass on a single root state, so
    the score carries no information: it is constant and evaluators may use
    its exact value.
    """

    name: str
    model: JghmModel
    im: callable
    tx: callable
    clamp: float = None

    def posterior(self, modality: str, leaves: np.ndarray) -> np.ndarray:
        if self.model is None:
            return np.ones(np.shape(leaves)[:-1] + (1,))
        return root_posterior(self.model, modality, leaves)

    def transform(self, modality: str):
        return by_modality(modality, self.im, self.tx)

    def features(self, modality: str, leaves: np.ndarray) -> np.ndarray:
        return self.transform(modality)(self.posterior(modality, leaves))

    def from_features(self, f_im: np.ndarray, f_tx: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            score = np.log(np.sum(f_im * f_tx, axis=-1))
        if self.clamp is not None:
            score = np.clip(score, -self.clamp, self.clamp)
        return score

    def __call__(self, x_im: np.ndarray, x_tx: np.ndarray) -> np.ndarray:
        return self.from_features(self.features("im", x_im), self.features("tx", x_tx))


def _identity(p: np.ndarray) -> np.ndarray:
    return p


def exact_score(model: JghmModel, clamp: float = None) -> BilinearScore:
    """The optimal similarity score: <P(s | x_im), P(s | x_tx) / P(s)> is
    P(x_im, x_tx) / (P(x_im) P(x_tx))."""
    return BilinearScore("exact", model, _identity,
                         partial(_over_prior, prior=model.root_prior), clamp)


def coarsened_score(model: JghmModel) -> BilinearScore:
    """Lossy score through the coarsened root: the optimal score of the
    merged-state separator, strictly less informative than the exact one."""
    merged_prior = _merge_posterior(model.root_prior[None, :])[0]

    def tx(p):
        return _over_prior(_merge_posterior(p), merged_prior)

    return BilinearScore("coarsened", model, _merge_posterior, tx)


def constant_score(value: float = 0.0) -> BilinearScore:
    """score == value everywhere; useful as an uninformative baseline."""

    def tx(p):
        return p * np.exp(value)

    return BilinearScore("constant", None, _identity, tx)
