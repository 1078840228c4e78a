"""Built-in desk-scale instances used by the self test and the test suite.

Anything touching the enumeration oracle stays at L <= 2, S <= 3, m <= 3;
the generator scales far beyond that for sweep-only use.
"""

from .model import JghmModel, ModelGenSpec, TreeTopology, make_pflip_model

__all__ = [
    "REFERENCE_SEED",
    "reference_topology",
    "reference_model",
    "zsc_reference_model",
    "micro_topology",
    "micro_model",
    "diffusion_topology",
    "diffusion_model",
    "large_scale_topology",
]

REFERENCE_SEED = 20240601


def reference_topology() -> TreeTopology:
    """Two levels, binary branching, three states: 13 nodes, enumerable."""
    return TreeTopology(depth=2, m_im=(2, 2), m_tx=(2, 2), n_states=3)


def reference_model(p_flip: float = 0.3) -> JghmModel:
    return make_pflip_model(
        ModelGenSpec(topology=reference_topology(), p_flip=p_flip, seed=REFERENCE_SEED))


def zsc_reference_model() -> JghmModel:
    """Reference instance for class prediction: near-deterministic text so
    the text essentially pins down the root (the regime in which the
    aggregated-score classifier is consistent)."""
    return make_pflip_model(ModelGenSpec(topology=reference_topology(), p_flip=0.3,
                                         p_flip_tx=0.05, seed=REFERENCE_SEED))


def micro_topology() -> TreeTopology:
    """Single child per side: the smallest nontrivial joint model."""
    return TreeTopology(depth=1, m_im=(1,), m_tx=(1,), n_states=2)


def micro_model() -> JghmModel:
    return make_pflip_model(ModelGenSpec(topology=micro_topology(), p_flip=0.5, seed=REFERENCE_SEED))


def diffusion_topology() -> TreeTopology:
    """S = 2, two image leaves: the diffusion acceptance instance."""
    return TreeTopology(depth=1, m_im=(2,), m_tx=(2,), n_states=2)


def diffusion_model(p_flip: float = 0.35) -> JghmModel:
    return make_pflip_model(
        ModelGenSpec(topology=diffusion_topology(), p_flip=p_flip, seed=REFERENCE_SEED))


def large_scale_topology() -> TreeTopology:
    """The large simulation scale (sweep-only; far beyond the oracle budget)."""
    return TreeTopology(depth=4, m_im=(3, 3, 3, 3), m_tx=(3, 3, 3, 3), n_states=10)
