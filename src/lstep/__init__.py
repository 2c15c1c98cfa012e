"""Temporal link prediction with learnable spectral positional encodings."""
from .autodiff import GradientTape, Tensor, backward
from .config import PRESETS, RunConfig, apply_preset, config_hash, parse_config
from .eigen import symmetric_eig
from .encoder import node_encoding, predict_link, temporal_representation
from .events import (
    ChronoSplit,
    EventStream,
    batch_iter,
    chronological_split,
    load_events,
)
from .fourier import dft, filter_kernel, idft
from .losses import loss_lp, loss_pe, total_loss
from .lpe import (
    BoundReport,
    PositionalStore,
    approximate_pe,
    commit_pe,
    refine_pe,
    theorem1_check,
)
from .metrics import average_precision, roc_auc
from .model import ModelDims, ModelParams, init_model_params
from .optim import AdamState, adam_step
from .peinit import InitialPE, laplacian_pe, random_walk_pe
from .sampling import NegativeSampler, Sample
from .timeenc import time_encode
from .training import EvalReport, TrainResult, collect_pe_trace, evaluate, train

__version__ = "0.1.0"
