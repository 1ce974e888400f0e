"""Declarative, type-based deep learning toolkit.

Declare input and output features by name and type in a configuration file;
the toolkit builds, trains, evaluates, and serves the corresponding
encoder-combiner-decoder model with no user code.

Importing the package pins numpy's BLAS to one thread, before numpy is
first imported, unless the environment sets a count: a long product split
across threads can round differently, and a seed must give the same bytes.

On glibc it also keeps freed memory for reuse, unless the environment tunes
malloc itself: blocks up to 32 MB come from the heap, which keeps up to
64 MB of free top, the limits glibc's own adaptive threshold stops at.
Training allocates and frees arrays of a few MB every step, and by default
glibc may map such a block afresh or trim the freed top of its heap, so that
the next step faults in zeroed pages again. Whether it did hung on heap
layout alone: in the benchmark's process (2-vCPU VM), one warm
``experiment()`` of the text workload took about 200 or about 10,000 minor
faults by seed and package version, and 0 with these settings.
"""

import ctypes
import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_var, "1")

#: mallopt(parameter, value): M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1)
_MALLOC_SETTINGS = {-3: 32 << 20, -1: 64 << 20}
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                     "MALLOC_MMAP_MAX_")


def _keep_freed_memory() -> None:
    if any(name in os.environ for name in _MALLOC_VARIABLES) \
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt  # glibc's, or musl's, which ignores it
    except (OSError, TypeError, AttributeError):
        return
    for parameter, value in _MALLOC_SETTINGS.items():
        mallopt(parameter, value)


_keep_freed_memory()

from .autodiff import Parameter, ParameterStore, Tape
from .config import Diagnostic, parse_model_definition, resolve_defaults, validate
from .definition import CombinerSpec, DecoderSpec, EncoderSpec, ModelDefinition, TrainingParams
from .graph import ECDModel, build_dependency_order, combined_loss
from .pipelines import TrainingStats, ValidationFailed, experiment, load_model, predict, save_model, train
from .registry import Registries, Registry, build_default_registries

__version__ = "0.1.0"

__all__ = [
    "CombinerSpec",
    "DecoderSpec",
    "Diagnostic",
    "ECDModel",
    "EncoderSpec",
    "ModelDefinition",
    "Parameter",
    "ParameterStore",
    "Registries",
    "Registry",
    "Tape",
    "TrainingParams",
    "TrainingStats",
    "ValidationFailed",
    "build_default_registries",
    "build_dependency_order",
    "combined_loss",
    "experiment",
    "load_model",
    "parse_model_definition",
    "predict",
    "resolve_defaults",
    "save_model",
    "train",
    "validate",
]
