"""Ancestral sampling from the joint tree model and derived task samples.

All samplers are pure functions of (model, generator state); batch variants
vectorize over a leading axis and consume generator draws in a fixed order,
so identical generators reproduce identical bits.
"""

from dataclasses import dataclass

import numpy as np

from .model import JghmModel, ModelError, _count, _integer, _real

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
    """`t` if it is a diffusion time, a finite real >= 0, else ModelError."""
    return _real(t, low=0, what="diffusion time t")


@dataclass(frozen=True)
class NoisyImage:
    """Gaussian observation z = t * x_im + sqrt(t) * g at diffusion time t."""

    t: float
    z: np.ndarray

    def __post_init__(self):
        check_time(self.t)
        if not np.all(np.isfinite(self.z)):
            raise ModelError("noisy image has non-finite entries")


def _draw_roots(model: JghmModel, size, rng) -> np.ndarray:
    """`size` roots from the prior, by the count `_sample_tree` draws with."""
    u = rng.random(_count(size, low=0, what="size"))
    return (u > model.root_cum[:-1, None]).sum(axis=0) + 1


def _sample_tree(model: JghmModel, modality: str, roots: np.ndarray, rng) -> tuple:
    """Ancestral pass below given root states (B,); returns per-level arrays.

    Each level takes one block of uniforms, ordered (rank, row, parent):
    every rank-1 child first, then every rank-2 child, and so on.

    A child is an inverse-CDF draw: its 0-based state is the number of the
    first S - 1 cumulative masses of its kernel row that its uniform
    exceeds. A cumulative row of nonnegative entries is nondecreasing, so
    an exceeded mass means every earlier one is exceeded too: the count is
    the index of the first mass that reaches u, and a uniform above the
    row's last mass (a total rounded below 1) counts S - 1, the last state.
    Each level gathers every child's S - 1 masses in one take from a
    state-major copy of its cumulative columns and counts over that leading
    axis, which numpy reduces faster than a short last axis.
    """
    levels = []
    parents = roots[:, None]  # (B, 1)
    S = model.n_states
    for cum in model.plan(modality).cum:
        m = len(cum)
        B, n_prev = parents.shape
        u = rng.random(m * B * n_prev).reshape(m, B, n_prev)
        # entry (k, j*S + x - 1) is mass k of the rank-(j+1) kernel row of state x
        cols = cum[..., :-1].transpose(2, 0, 1).reshape(S - 1, m * S)
        masses = np.take(cols, (np.arange(m) * S - 1)[:, None, None] + parents, axis=1)
        children = (u > masses).sum(axis=0) + 1  # (m, B, n_prev)
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
    if not _integer(K) or K < 2:
        raise ModelError(f"contrastive batch needs an integer K >= 2, got {K!r}")
    topo = model.topology
    pos = sample_joint_batch(model, size, rng)
    neg_im = sample_marginal_leaves(model, "im", size * (K - 1), rng)
    neg_tx = sample_marginal_leaves(model, "tx", size * (K - 1), rng)
    images = np.concatenate([pos.x_im[:, None, :], neg_im.reshape(size, K - 1, topo.d_im)], axis=1)
    texts = np.concatenate([pos.x_tx[:, None, :], neg_tx.reshape(size, K - 1, topo.d_tx)], axis=1)
    return images, texts


def noise_image(x_im: np.ndarray, t: float, rng: np.random.Generator, g=None) -> NoisyImage:
    """Observe z = t * x_im + sqrt(t) * g, g standard normal.

    `x_im` must be an integer array of states >= 1 (else ModelError). `g`
    can be injected for tests; otherwise it is drawn from `rng`.
    """
    check_time(t)
    x = np.asarray(x_im)
    integral = np.issubdtype(x.dtype, np.integer)
    if not integral or (x.size and x.min() < 1):
        got = f"state {x.min()}" if integral else f"dtype {x.dtype}"
        raise ModelError(f"image must be an integer array of states >= 1, got {got}")
    x = x.astype(float)
    if g is None:
        g = rng.standard_normal(x.shape)
    return NoisyImage(t=float(t), z=t * x + np.sqrt(t) * np.asarray(g, dtype=float))


def sample_text_for_class(model: JghmModel, y: int, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """Sample `size` text leaf vectors (size, d_tx) conditioned on the root
    being class y."""
    _count(y, high=model.n_states, what="class y")
    roots = np.full(_count(size, low=0, what="size"), y, dtype=np.int64)
    return _sample_tree(model, "tx", roots, rng)[-1]
