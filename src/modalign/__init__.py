"""modalign: text-anchored alignment of precomputed multi-modal embeddings.

The toolkit ingests frozen-backbone embeddings plus generated text
descriptions, localizes class-wise anchor sets from the most prompt-similar
descriptions, trains one linear adapter per modality with a contrastive
objective against paired descriptions, and evaluates zero-shot recognition
and cross-modal retrieval.
"""

__version__ = "0.1.0"

from .centers import (
    CenterSet,
    EmbeddingCenter,
    PromptSet,
    group_rows,
    load_center_set,
    localize,
    prompts_from_matrix,
    save_center_set,
    sweep_k,
)
from .contrastive import info_nce_loss
from .diagnostics import AlignmentDiagnostics, alignment_diagnostics
from .errors import ModalignError
from .evaluation import (
    EvalReport,
    RetrievalReport,
    ScoringMode,
    category_relevance,
    category_scores,
    evaluate_classification,
    evaluate_retrieval,
)
from .kb import KnowledgeBase, KnowledgeRecord, Source, build, load_kb_dir, write_kb_dir
from .pipeline import PipelineConfig, load_pipeline_config, run_pipeline
from .synthetic import SyntheticBundle, SyntheticSpec, generate_synthetic
from .training import (
    GradCheckReport,
    LinearAdapter,
    TrainConfig,
    gradient_check_arrays,
    load_adapter,
    resolve_pairs,
    save_adapter,
    train,
)
from .ubem import read_ubem, write_ubem
from .vectors import (
    EmbeddingMatrix,
    cosine,
    normalize,
    normalize_rows,
    similarity_matrix,
    top_k,
)

__all__ = [
    "__version__",
    "AlignmentDiagnostics",
    "CenterSet",
    "EmbeddingCenter",
    "EmbeddingMatrix",
    "EvalReport",
    "GradCheckReport",
    "KnowledgeBase",
    "KnowledgeRecord",
    "LinearAdapter",
    "ModalignError",
    "PipelineConfig",
    "PromptSet",
    "RetrievalReport",
    "ScoringMode",
    "Source",
    "SyntheticBundle",
    "SyntheticSpec",
    "TrainConfig",
    "alignment_diagnostics",
    "build",
    "category_relevance",
    "category_scores",
    "cosine",
    "evaluate_classification",
    "evaluate_retrieval",
    "generate_synthetic",
    "gradient_check_arrays",
    "group_rows",
    "info_nce_loss",
    "load_adapter",
    "load_center_set",
    "load_kb_dir",
    "load_pipeline_config",
    "localize",
    "normalize",
    "normalize_rows",
    "prompts_from_matrix",
    "read_ubem",
    "resolve_pairs",
    "run_pipeline",
    "save_adapter",
    "save_center_set",
    "similarity_matrix",
    "sweep_k",
    "top_k",
    "train",
    "write_kb_dir",
    "write_ubem",
]
