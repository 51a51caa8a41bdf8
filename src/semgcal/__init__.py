"""Unsupervised self-calibration of sEMG gesture classifiers.

Preprocessing, two small neural architectures on a built-in reverse-mode
autodiff, six adaptation algorithms (DANN, VADA, DIRT-T, AdaBN, MV, SCADANN),
the nonparametric evaluation battery, and a synthetic domain-shift benchmark.

The package exports the names of the README's library sketch and the error
types; everything else is imported from its module (`semgcal.experiment`,
`semgcal.nn`, ...).
"""

from .adapt import scadann_calibrate
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
from .nn import build_tsd_dnn
from .synth import SynthConfig, synth_generate
from .train import default_train_config, fit

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "EmptyInputError",
    "NumericError",
    "ParameterError",
    "ParseError",
    "SemgCalError",
    "ShapeError",
    "SynthConfig",
    "UsageError",
    "build_tsd_dnn",
    "default_train_config",
    "fit",
    "scadann_calibrate",
    "synth_generate",
]
