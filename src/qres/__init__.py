"""Query resource estimation: tree ensembles with asymptotic scaling for extrapolation.

Subpackages:

- :mod:`qres.plan` — operator/plan model, pipeline decomposition, JSON I/O
- :mod:`qres.features` — per-operator feature taxonomy and extraction
- :mod:`qres.gbrt` — gradient-boosted regression trees (training + fast prediction)
- :mod:`qres.scaling` — asymptotic scaling-function fitting and selection
- :mod:`qres.registry` — per-operator model registry, combined models, serialization
- :mod:`qres.synth` — synthetic workload and label generator
- :mod:`qres.evalkit` — error metrics, baselines, comparison reports
- :mod:`qres.estimators` — query-level estimator wrappers
- :mod:`qres.cli` — command-line interface
"""
from .features import FeatureId, extract_features
from .gbrt import MartModel, TrainConfig, train
from .plan import OperatorType, PlanNode, QueryPlan, decompose_pipelines, parse_plan
from .registry import (
    ModelRegistry,
    estimate_many,
    estimate_query,
    load_registry,
    save_registry,
    train_registry,
)
from .scaling import FormKind, ScalingForm, select_form
from .synth import CorpusSpec, generate_corpus

__version__ = "1.0.0"

__all__ = [
    "CorpusSpec",
    "FeatureId",
    "FormKind",
    "MartModel",
    "ModelRegistry",
    "OperatorType",
    "PlanNode",
    "QueryPlan",
    "ScalingForm",
    "TrainConfig",
    "decompose_pipelines",
    "estimate_many",
    "estimate_query",
    "extract_features",
    "generate_corpus",
    "load_registry",
    "parse_plan",
    "save_registry",
    "select_form",
    "train",
    "train_registry",
    "__version__",
]
