"""Unsupervised self-calibration of sEMG gesture classifiers.

Preprocessing, two small neural architectures on a built-in reverse-mode
autodiff, six adaptation algorithms (DANN, VADA, DIRT-T, AdaBN, MV, SCADANN),
the nonparametric evaluation battery, and a synthetic domain-shift benchmark.
"""

from .adapt import (
    AdaptConfig,
    ScadannResult,
    adabn_adapt,
    conditional_entropy_loss,
    dann_train,
    dirt_t_refine,
    mv_calibrate,
    prediction_stream,
    scadann_calibrate,
    vada_train,
    vat_loss,
)
from .errors import (
    DataError,
    EmptyInputError,
    NumericError,
    ParameterError,
    ParseError,
    SemgCalError,
    ShapeError,
    UsageError,
)
from .features import tsd_descriptor
from .nn import (
    Network,
    build_spectrogram_convnet,
    build_tsd_dnn,
    load_network,
    save_network,
)
from .optim import Adam
from .relabel import (
    HeuristicConfig,
    PredictionStream,
    PseudoLabeledDataset,
    find_transition_start,
    generate_pseudo_labels,
    mv_relabel,
)
from .signal import (
    RawRecording,
    Segment,
    SpectrogramExample,
    bandpass_filter,
    build_spectrogram_example,
    hann_window,
    segment_stream,
    spectrogram_channel,
)
from .stats import (
    accuracy,
    cohens_dz,
    friedman_test,
    holm_posthoc,
    wilcoxon_signed_rank,
)
from .synth import SessionData, SubjectData, SynthConfig, synth_generate
from .train import TrainConfig, default_train_config, train_supervised

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdaptConfig",
    "DataError",
    "EmptyInputError",
    "HeuristicConfig",
    "Network",
    "NumericError",
    "ParameterError",
    "ParseError",
    "PredictionStream",
    "PseudoLabeledDataset",
    "RawRecording",
    "ScadannResult",
    "Segment",
    "SemgCalError",
    "SessionData",
    "ShapeError",
    "SpectrogramExample",
    "SubjectData",
    "SynthConfig",
    "TrainConfig",
    "UsageError",
    "accuracy",
    "adabn_adapt",
    "bandpass_filter",
    "build_spectrogram_convnet",
    "build_spectrogram_example",
    "build_tsd_dnn",
    "cohens_dz",
    "conditional_entropy_loss",
    "dann_train",
    "default_train_config",
    "dirt_t_refine",
    "find_transition_start",
    "friedman_test",
    "generate_pseudo_labels",
    "hann_window",
    "holm_posthoc",
    "load_network",
    "mv_calibrate",
    "mv_relabel",
    "prediction_stream",
    "save_network",
    "scadann_calibrate",
    "segment_stream",
    "spectrogram_channel",
    "synth_generate",
    "train_supervised",
    "tsd_descriptor",
    "vada_train",
    "vat_loss",
    "wilcoxon_signed_rank",
]
