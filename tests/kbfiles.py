"""Knowledge bases for tests, built from files as `kb.build` builds them.

A knowledge base reads its rows from its UBEM file and never holds them, so
each one built here gets a directory of its own that lives until the test
process exits.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np

from modalign.kb import KnowledgeBase, build, save_records
from modalign.ubem import write_ubem
from modalign.vectors import UNIT_TOLERANCE, EmbeddingMatrix


@functools.cache
def _root() -> tempfile.TemporaryDirectory:
    """One directory for every knowledge base built here, removed at exit."""
    return tempfile.TemporaryDirectory(prefix="modalign-test-kb-")


def write_kb_files(directory, records, vectors) -> tuple[Path, Path]:
    """Write `records` and `vectors`, rounded to float32, as a records file
    and an unlabeled embeddings UBEM in `directory`; return their paths."""
    records_path = Path(directory) / "records.jsonl"
    embeddings_path = Path(directory) / "embeddings.ubem"
    save_records(records_path, records)
    write_ubem(embeddings_path, EmbeddingMatrix(np.asarray(vectors, dtype=np.float32)))
    return records_path, embeddings_path


def kb_from_parts(records, vectors) -> KnowledgeBase:
    """The knowledge base `build` makes of `records` and `vectors`."""
    return build(*write_kb_files(tempfile.mkdtemp(dir=_root().name), records, vectors))


def kb_rows(kb: KnowledgeBase) -> np.ndarray:
    """Every unit row of `kb`, read through `KnowledgeBase.read_rows`."""
    return kb.read_rows(list(range(kb.size)))


def whole_matrix_ingest(vectors) -> np.ndarray:
    """Reference for the ingest rule: one float64 pass over the whole float32
    matrix, scaling only the rows not already unit within UNIT_TOLERANCE."""
    x = np.ascontiguousarray(vectors, dtype=np.float32)
    norms = np.linalg.norm(x.astype(np.float64), axis=1)
    needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
    out = x.copy()
    out[needs] = (x[needs].astype(np.float64) / norms[needs, None]).astype(np.float32)
    return out
