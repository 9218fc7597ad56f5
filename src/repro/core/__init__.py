"""The BSTC classifier: BSTCE evaluation, the classifier, explanations.

Attributes are resolved lazily (PEP 562): the heavy submodules (``bstce``,
``classifier``, ``fast``, ...) import the ``bst``/``datasets`` layers, while
those layers themselves import the dependency-free :mod:`repro.core.bitset`
kernel.  Eager imports here would close that loop — lazy resolution keeps
``from repro.core.bitset import BitSet`` safe from any layer.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "COMBINERS": "arithmetization",
    "classification_confidence": "arithmetization",
    "get_combiner": "arithmetization",
    "BitMatrix": "bitset",
    "BitSet": "bitset",
    "flush_kernel_counters": "bitset",
    "kernel_stats_snapshot": "bitset",
    "bstce": "bstce",
    "bstce_detail": "bstce",
    "BSTClassifier": "classifier",
    "ENGINES": "estimator",
    "Estimator": "estimator",
    "NotFittedError": "estimator",
    "resolve_engine": "estimator",
    "CellRuleEvidence": "explain",
    "Explanation": "explain",
    "explain_classification": "explain",
    "EvaluationPlan": "plan",
    "PlanClass": "plan",
    "compile_plan": "plan",
    "plan_from_arena": "plan",
    "FastBSTCEvaluator": "fast",
    "clear_evaluator_cache": "fast",
    "evaluator_cache_info": "fast",
    "get_evaluator": "fast",
    "register_evaluator": "fast",
    "set_evaluator_cache_size": "fast",
    "ARTIFACT_FORMAT_VERSION": "artifact",
    "ArtifactError": "artifact",
    "DatasetSummary": "artifact",
    "load_artifact": "artifact",
    "save_artifact": "artifact",
    "AutoBSTClassifier": "auto",
    "MCBARClassifier": "mcbar_classifier",
    "rule_satisfaction": "mcbar_classifier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .arithmetization import (  # noqa: F401
        COMBINERS,
        classification_confidence,
        get_combiner,
    )
    from .artifact import (  # noqa: F401
        ARTIFACT_FORMAT_VERSION,
        ArtifactError,
        DatasetSummary,
        load_artifact,
        save_artifact,
    )
    from .auto import AutoBSTClassifier  # noqa: F401
    from .bitset import (  # noqa: F401
        BitMatrix,
        BitSet,
        flush_kernel_counters,
        kernel_stats_snapshot,
    )
    from .bstce import bstce, bstce_detail  # noqa: F401
    from .classifier import BSTClassifier  # noqa: F401
    from .estimator import (  # noqa: F401
        ENGINES,
        Estimator,
        NotFittedError,
        resolve_engine,
    )
    from .explain import (  # noqa: F401
        CellRuleEvidence,
        Explanation,
        explain_classification,
    )
    from .fast import (  # noqa: F401
        FastBSTCEvaluator,
        clear_evaluator_cache,
        evaluator_cache_info,
        get_evaluator,
        register_evaluator,
        set_evaluator_cache_size,
    )
    from .mcbar_classifier import MCBARClassifier, rule_satisfaction  # noqa: F401
    from .plan import (  # noqa: F401
        EvaluationPlan,
        PlanClass,
        compile_plan,
        plan_from_arena,
    )
