"""Ancestral sampling from the joint tree model and derived task samples.

All samplers are pure functions of (model, generator state); batch variants
vectorize over a leading axis and consume generator draws in a fixed order,
so identical generators reproduce identical bits.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .model import JghmModel, ModelError

__all__ = [
    "Sample",
    "NoisyImage",
    "sample_joint",
    "sample_joint_batch",
    "sample_contrastive_rows",
    "noise_image",
    "sample_text_for_class",
]


@dataclass(frozen=True)
class Sample:
    """One draw of every node value; states are 1-based.

    ``levels_im[l]`` holds level l+1 of the image tree. Batched samples
    carry a leading axis on the root and every level array.
    """

    root: np.ndarray
    levels_im: tuple
    levels_tx: tuple

    @property
    def x_im(self) -> np.ndarray:
        return self.levels_im[-1]

    @property
    def x_tx(self) -> np.ndarray:
        return self.levels_tx[-1]


def check_time(t: float) -> float:
    """Return a diffusion time; reject one that is not a real number (bools
    included), or is negative, infinite, nan or an integer beyond floats."""
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 <= t <= sys.float_info.max:
        raise ModelError(f"diffusion time t must be a finite real >= 0, got {t!r}")
    return t


@dataclass(frozen=True)
class NoisyImage:
    """Gaussian observation z = t * x_im + sqrt(t) * g at diffusion time t."""

    t: float
    z: np.ndarray

    def __post_init__(self):
        check_time(self.t)
        if not np.all(np.isfinite(self.z)):
            raise ModelError("noisy image has non-finite entries")


def _draw(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: per uniform u, the first 0-based index whose
    cumulative mass in the matching row of `cum` (..., S) reaches u."""
    return np.minimum((u[..., None] > cum).sum(axis=-1), cum.shape[-1] - 1)


def _draw_roots(model: JghmModel, size: int, rng) -> np.ndarray:
    return _draw(rng.random(size), model.root_cum) + 1


def _sample_tree(model: JghmModel, modality: str, roots: np.ndarray, rng) -> tuple:
    """Ancestral pass below given root states (B,); returns per-level arrays.

    Each level takes one block of uniforms, ordered (rank, row, parent):
    every rank-1 child first, then every rank-2 child, and so on.
    """
    levels = []
    parents = roots[:, None]  # (B, 1)
    S = model.n_states
    for cum in model.plan(modality).cum:
        m = len(cum)
        B, n_prev = parents.shape
        u = rng.random(m * B * n_prev).reshape(m, B, n_prev)
        # the rank-(j+1) child of a parent in state x reads row j*S + x - 1
        rows = np.take(cum.reshape(m * S, S),
                       (np.arange(m) * S - 1)[:, None, None] + parents, axis=0)
        children = _draw(u, rows) + 1  # (m, B, n_prev)
        parents = children.transpose(1, 2, 0).reshape(B, n_prev * m)
        levels.append(parents)
    return tuple(levels)


def sample_joint_batch(model: JghmModel, size: int, rng: np.random.Generator) -> Sample:
    """Draw `size` independent full trajectories; arrays have shape (size, .)."""
    roots = _draw_roots(model, size, rng)
    levels_im = _sample_tree(model, "im", roots, rng)
    levels_tx = _sample_tree(model, "tx", roots, rng)
    return Sample(root=roots, levels_im=levels_im, levels_tx=levels_tx)


def sample_marginal_leaves(model: JghmModel, modality: str, size: int, rng) -> np.ndarray:
    """Draw `size` leaf vectors from one modality's marginal law (a fresh
    root per draw, the other tree never materialized)."""
    return _sample_tree(model, modality, _draw_roots(model, size, rng), rng)[-1]


def sample_joint(model: JghmModel, rng: np.random.Generator) -> Sample:
    """Draw one trajectory: root from the prior, children level by level."""
    batch = sample_joint_batch(model, 1, rng)
    return Sample(
        root=batch.root[0],
        levels_im=tuple(a[0] for a in batch.levels_im),
        levels_tx=tuple(a[0] for a in batch.levels_tx),
    )


def sample_contrastive_rows(model: JghmModel, K: int, size: int, rng) -> tuple:
    """`size` contrastive batches as (images (size, K, d_im), texts (size, K, d_tx)).

    Row 0 of each batch is a joint draw; the K-1 negative images and then the
    K-1 negative texts are fresh marginal draws (the law of discarding one
    side of an independent joint sample), so negatives are independent of
    the positive pair and of each other.
    """
    if K < 2:
        raise ModelError(f"contrastive batch needs K >= 2, got {K}")
    topo = model.topology
    pos = sample_joint_batch(model, size, rng)
    neg_im = sample_marginal_leaves(model, "im", size * (K - 1), rng)
    neg_tx = sample_marginal_leaves(model, "tx", size * (K - 1), rng)
    images = np.concatenate([pos.x_im[:, None, :], neg_im.reshape(size, K - 1, topo.d_im)], axis=1)
    texts = np.concatenate([pos.x_tx[:, None, :], neg_tx.reshape(size, K - 1, topo.d_tx)], axis=1)
    return images, texts


def noise_image(x_im: np.ndarray, t: float, rng: np.random.Generator, g=None) -> NoisyImage:
    """Observe z = t * x_im + sqrt(t) * g, g standard normal.

    `g` can be injected for tests; otherwise it is drawn from `rng`.
    """
    check_time(t)
    x = np.asarray(x_im, dtype=float)
    if g is None:
        g = rng.standard_normal(x.shape)
    return NoisyImage(t=float(t), z=t * x + np.sqrt(t) * np.asarray(g, dtype=float))


def sample_text_for_class(model: JghmModel, y: int, rng: np.random.Generator, size=None) -> np.ndarray:
    """Sample text leaves conditioned on the root being class y.

    Returns (d_tx,) for size=None, else (size, d_tx).
    """
    if not 1 <= y <= model.n_states:
        raise ModelError(f"class {y} out of range [1, {model.n_states}]")
    B = 1 if size is None else int(size)
    roots = np.full(B, y, dtype=np.int64)
    leaves = _sample_tree(model, "tx", roots, rng)[-1]
    return leaves[0] if size is None else leaves
