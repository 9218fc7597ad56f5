"""Evaluation machinery: metrics, boxplots, budgets, the CV harness, the
supervised worker pool and the checkpoint journal.

Names resolve lazily (:mod:`repro._lazy`), so the serving layer's use of
:mod:`~repro.evaluation.timing` does not import the CV harness."""

from .._lazy import lazy_exports

_EXPORTS = {
    "BoxplotStats": ".boxplot",
    "boxplot_stats": ".boxplot",
    "CVTest": ".crossval",
    "PhaseRecord": ".crossval",
    "StudyResult": ".crossval",
    "TestResult": ".crossval",
    "TrainingSize": ".crossval",
    "derive_seed": ".crossval",
    "make_test": ".crossval",
    "paper_training_sizes": ".crossval",
    "ResultJournal": ".journal",
    "result_from_dict": ".journal",
    "result_to_dict": ".journal",
    "LatencyHistogram": ".latency",
    "accuracy": ".metrics",
    "confusion_matrix": ".metrics",
    "error_direction": ".metrics",
    "mean_accuracy": ".metrics",
    "RetryPolicy": ".resilience",
    "TaskOutcome": ".resilience",
    "multiprocessing_available": ".resilience",
    "supervised_map": ".resilience",
    "Budget": ".timing",
    "BudgetExceeded": ".timing",
    "ResourceExhausted": ".timing",
    "TimedOutcome": ".timing",
    "run_with_budget": ".timing",
    "timed": ".timing",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
