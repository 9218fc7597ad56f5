"""repro — Boolean Structure Table Classification (BSTC).

A complete reproduction of *Scalable Rule-Based Gene Expression Data
Classification* (Iwen, Lang & Patel, ICDE 2008): the BSTC classifier and its
BST/BAR machinery, the Top-k/RCBT, CBA, SVM and tree-family baselines it is
evaluated against, the entropy-MDL discretization pipeline, synthetic
microarray data generation matching the paper's dataset profiles, and
drivers regenerating every table and figure of the evaluation section.

Quickstart::

    from repro import BSTClassifier, running_example

    dataset = running_example()
    clf = BSTClassifier().fit(dataset)
    clf.predict({0, 3, 4})   # -> 0 (Cancer), the paper's Section 5.4 query

Names resolve lazily (:mod:`repro._lazy`): ``import repro`` or any
``repro.<module>`` imports only what is used.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "mine_mcmcbar": ".bst.mining",
    "mine_mcmcbar_per_sample": ".bst.mining",
    "StructuredBAR": ".bst.row_bar",
    "all_gene_row_bars": ".bst.row_bar",
    "gene_row_bar": ".bst.row_bar",
    "BST": ".bst.table",
    "BSTCell": ".bst.table",
    "ExclusionList": ".bst.table",
    "build_all_bsts": ".bst.table",
    "ArtifactCorrupt": ".core.artifact",
    "ArtifactError": ".core.artifact",
    "ArtifactStale": ".core.artifact",
    "DatasetSummary": ".core.artifact",
    "load_artifact": ".core.artifact",
    "save_artifact": ".core.artifact",
    "bstce": ".core.bstce",
    "bstce_detail": ".core.bstce",
    "BSTClassifier": ".core.classifier",
    "NotFittedError": ".core.classifier",
    "Explanation": ".core.explain",
    "explain_classification": ".core.explain",
    "DatasetError": ".datasets.dataset",
    "ExpressionMatrix": ".datasets.dataset",
    "RelationalDataset": ".datasets.dataset",
    "running_example": ".datasets.dataset",
    "EntropyDiscretizer": ".datasets.discretize",
    "mdlp_cut_points": ".datasets.discretize",
    "DatasetProfile": ".datasets.profiles",
    "MULTICLASS_PROFILE": ".datasets.profiles",
    "PAPER_PROFILES": ".datasets.profiles",
    "profile": ".datasets.profiles",
    "scaled": ".datasets.profiles",
    "generate_expression_data": ".datasets.synthetic",
    "CandidateBudgetExceeded": ".errors",
    "CorruptResult": ".errors",
    "JournalError": ".errors",
    "ReproError": ".errors",
    "ResourceExhausted": ".errors",
    "RuleBudgetExceeded": ".errors",
    "TaskTimeout": ".errors",
    "WorkerCrashed": ".errors",
    "WorkerError": ".errors",
    "ResultJournal": ".evaluation.journal",
    "RetryPolicy": ".evaluation.resilience",
    "supervised_map": ".evaluation.resilience",
    "Budget": ".evaluation.timing",
    "BudgetExceeded": ".evaluation.timing",
    "ExperimentConfig": ".experiments.base",
    "ExperimentResult": ".experiments.base",
    "experiment_ids": ".experiments.registry",
    "run_experiment": ".experiments.registry",
    "BAR": ".rules.bar",
    "CAR": ".rules.car",
    "RuleGroup": ".rules.groups",
    "closure_of_rows": ".rules.groups",
    "find_lower_bounds": ".rules.groups",
    "CircuitOpen": ".serving",
    "DeadlineExceeded": ".serving",
    "GatewayServer": ".serving",
    "ModelInfo": ".serving",
    "ModelNotFound": ".serving",
    "ModelRegistry": ".serving",
    "NotSupportedError": ".serving",
    "PredictionService": ".serving",
    "QueryError": ".serving",
    "QuotaExceeded": ".serving",
    "RegistryHealth": ".serving",
    "ServeConfig": ".serving",
    "ServiceClosed": ".serving",
    "ServiceError": ".serving",
    "ServiceHealth": ".serving",
    "ServiceOverloaded": ".serving",
    "FaultPlan": ".testing.faults",
    "FaultSpec": ".testing.faults",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
