"""Cross-modal knowledge transfer for regression: train a weaker-modality
encoder with stronger-modality supervision (translation, autoencoding, and
latent correlation alignment), deploy it uni-modally."""

from .autodiff import Node, Sgd, backward, make_rng
from .data import Dataset, Standardizer, SyntheticSpec, generate_synthetic
from .dcca import cca_correlation
from .errors import (
    ConditioningError,
    ConfigError,
    DataError,
    DimensionError,
    ExportError,
    GraphError,
    NumericError,
    SewError,
)
from .metrics import EvalResult, binary_accuracy, ccc, evaluate
from .networks import (
    ABLATIONS,
    GruRegressorSpec,
    MlpSpec,
    SewModel,
    assemble_sew,
    load_model,
    save_model,
)
from .presets import desk_config, desk_spec, pair_config
from .training import (
    EpochReport,
    SewConfig,
    export_deployment,
    run_ablation_suite,
    sew_loss,
    train,
)

__version__ = "0.1.0"
