"""Zero-shot document-level relation extraction: data generation, consistency
denoising, and evaluation.

The package builds training data for relation/triplet extraction over
relations with no human annotations: a chat model is walked through a
multi-step retrieval dialogue to write labeled synthetic documents, the
resulting labels are cross-checked against an independent pseudo-labeler by
counting how often each relational fact recurs across documents, and facts
that fall below a per-relation consistency threshold are pruned before the
corpus is relabeled.  An evaluation module scores both name-based triplet
predictions and index-based relation predictions with micro-averaged
precision/recall/F1.
"""
from __future__ import annotations

from .backends import BackendError, ChatBackend, ChatTranscript, RequestMeta
from .config import ConfigError, PipelineConfig, load_config
from .pipeline import STAGE_ORDER, MissingStageError, PipelineRunner, StageError
from .pseudo import PredictorBackend, PredictorError

__version__ = "0.1.0"

# The command line and the PipelineRunner factory hooks; everything else is
# imported from its submodule.
__all__ = [
    "BackendError",
    "ChatBackend",
    "ChatTranscript",
    "ConfigError",
    "MissingStageError",
    "PipelineConfig",
    "PipelineRunner",
    "PredictorBackend",
    "PredictorError",
    "RequestMeta",
    "STAGE_ORDER",
    "StageError",
    "load_config",
]
