"""Simulation and exact-inference laboratory for joint two-tree generative
models: ancestral sampling, belief-propagation oracles for contrastive
scoring, conditional denoising and next-token prediction, sufficiency and
risk evaluators, and a reproducible experiment driver."""

from .model import (
    JghmModel,
    ModelError,
    ModelGenSpec,
    TreeTopology,
    leaf_index,
    make_pflip_model,
    model_from_json,
    model_to_json,
    validate_model,
)
from .sampler import (
    NoisyImage,
    Sample,
    noise_image,
    sample_joint,
    sample_joint_batch,
    sample_text_for_class,
)
from .bp import (
    MessageStack,
    bayes_denoiser,
    conditioned_denoiser,
    downsweep,
    leaf_evidence_from_noise,
    next_token_posterior_bp,
    next_token_posteriors_parallel,
    normalize,
    optimal_score,
    posterior_floor,
    readout_bound,
    root_posterior,
    text_log_likelihood,
    upsweep,
)
from .encoders import (
    BilinearScore,
    Encoder,
    canonical_encoder,
    coarsened_root_encoder,
    coarsened_score,
    constant_encoder,
    constant_score,
    exact_score,
    prefix_text_encoder,
)
from .oracle import (
    BudgetExceeded,
    JointTable,
    enumerate_joint,
    exact_conditional_root,
    exact_denoiser,
    exact_mutual_information,
    exact_next_token,
    exact_suff_encoder,
    exact_suff_score,
)
from .metrics import (
    MisspecResult,
    RiskReport,
    cdm_estimation_error,
    clip_excess_and_mi_limit,
    clip_risk,
    misspec_bp_eval,
    vlm_divergence,
    zsc_kl,
    zsc_kl_sweep,
    zsc_predict,
)
from .diffusion import SdeConfig, round_to_states, sample_image_sde, sampled_law_distance
from .rng import stream

__version__ = "0.1.0"
