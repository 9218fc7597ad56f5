"""Microarray data models, discretization, synthesis, splits and I/O.

Names resolve lazily (:mod:`repro._lazy`): reading a TSV does not import
the discretizer, and a served query imports neither."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DatasetError": ".dataset",
    "ExpressionMatrix": ".dataset",
    "RelationalDataset": ".dataset",
    "running_example": ".dataset",
    "EntropyDiscretizer": ".discretize",
    "GenePartition": ".discretize",
    "mdlp_cut_points": ".discretize",
    "DEFAULT_CHUNK_ROWS": ".io",
    "concat_expression_chunks": ".io",
    "iter_expression_tsv": ".io",
    "load_expression_tsv": ".io",
    "save_expression_tsv": ".io",
    "PreprocessingPipeline": ".preprocess",
    "floor_and_log2": ".preprocess",
    "impute_missing": ".preprocess",
    "quantile_normalize": ".preprocess",
    "variance_filter": ".preprocess",
    "DatasetProfile": ".profiles",
    "MULTICLASS_PROFILE": ".profiles",
    "PAPER_PROFILES": ".profiles",
    "profile": ".profiles",
    "scaled": ".profiles",
    "TrainTestSplit": ".splits",
    "count_split": ".splits",
    "fraction_split": ".splits",
    "given_training_split": ".splits",
    "generate_expression_data": ".synthetic",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
