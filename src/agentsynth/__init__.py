"""agentsynth: synthetic agent populations from micro-sample data.

Three generative methods (a variational autoencoder, a frequency-table
Gibbs sampler, and Bayesian networks) plus two reference baselines, all
evaluated with a shared distribution-similarity protocol: SRMSE, Pearson
correlation, and R^2 over marginal/bivariate/trivariate/projected bin
frequencies, pairwise Cramer's V, nearest-sample diversity, and PCA
projections.
"""

from . import baselines, bayesnet, dataset, gibbs, metrics, neural, pipeline, synthdata, vae
from .baselines import MarginalModel, fit_marginals, marginal_sample, resample_training
from .bayesnet import (
    CptSet,
    Dag,
    ancestral_sample,
    chow_liu,
    exact_search,
    fit_cpts,
    greedy_search,
    mdl_score,
    mutual_information,
)
from .dataset import (
    AgentPool,
    EncodedMatrix,
    Schema,
    VariableSpec,
    build_uniform_edges,
    codes_to_pool,
    decode_rows,
    discretize,
    encode_pool,
    ingest_csv,
    pool_to_codes,
    read_pool_csv,
    schema_from_json,
    schema_to_json,
    split_pool,
    write_pool_csv,
)
from .errors import (
    AgentSynthError,
    ConfigError,
    DataError,
    DivergenceError,
    ExactSearchLimitError,
    SchemaError,
    StaleCacheError,
)
from .gibbs import ChainConfig, ConditionalTable, estimate_conditionals, run_chain
from .metrics import (
    DiversityStats,
    EvalReport,
    FrequencyDistribution,
    corr_r2,
    cramers_v,
    evaluate,
    frequency_distribution,
    nearest_sample_stats,
    pca_fit,
    pca_project,
    srmse,
)
from .pipeline import ExperimentConfig, MethodSpec, run_pipeline
from .synthdata import SyntheticGeneratorSpec, synth_generate
from .vae import TrainConfig, VaeModel, build_vae, sample, train

__version__ = "0.1.0"
