"""I/O-lower-bound-guided auto-tuning engine (Section 6 of the paper).

Measurements flow through a batched pipeline (``Measurer.measure_batch`` →
``GPUExecutor.run_batch``) and finished tuning runs can be shared across
layers, networks and processes via the :class:`TuningDatabase`.
"""

from .config import (
    ConfigArray,
    Configuration,
    Measurer,
    PendingBatch,
    build_profile,
    lower_batch,
)
from .space import SearchSpace
from .features import FEATURE_NAMES, FeatureCache, feature_matrix, feature_vector
from .cost_model import CostModel, GradientBoostedTrees, RegressionTree
from .explorer import ExplorerConfig, ParallelRandomWalkExplorer
from .session import TrialRecord, TuningResult, TuningSessionProtocol, record_trial
from .engine import AutoTuningEngine, TuningSession
from .database import (
    RecordEnvelope,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
    default_database_path,
)
from .store import JsonMapStore, LogStore, RecordStore
from .baselines import (
    BaselineSession,
    BaselineTuner,
    GeneticTuner,
    ParallelTemperingSATuner,
    RandomSearchTuner,
    SimulatedAnnealingTuner,
    TVMStyleTuner,
)

__all__ = [
    "ConfigArray",
    "Configuration",
    "Measurer",
    "PendingBatch",
    "build_profile",
    "lower_batch",
    "SearchSpace",
    "RecordEnvelope",
    "TuningDatabase",
    "TuningDatabaseError",
    "TuningRecord",
    "default_database_path",
    "JsonMapStore",
    "LogStore",
    "RecordStore",
    "FEATURE_NAMES",
    "FeatureCache",
    "feature_matrix",
    "feature_vector",
    "CostModel",
    "GradientBoostedTrees",
    "RegressionTree",
    "ExplorerConfig",
    "ParallelRandomWalkExplorer",
    "AutoTuningEngine",
    "TrialRecord",
    "TuningResult",
    "TuningSession",
    "TuningSessionProtocol",
    "record_trial",
    "BaselineSession",
    "BaselineTuner",
    "GeneticTuner",
    "ParallelTemperingSATuner",
    "RandomSearchTuner",
    "SimulatedAnnealingTuner",
    "TVMStyleTuner",
]
