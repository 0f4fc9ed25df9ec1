import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign.errors import (
    CountMismatch,
    DuplicateId,
    MalformedRecord,
    ZeroVector,
)
from modalign.kb import (
    KnowledgeRecord,
    Source,
    build,
    from_parts,
    load_kb_dir,
    load_records,
    save_records,
    write_kb_dir,
    _ingest_rows,
)
from modalign.centers import load_center_set, localize, save_center_set
from modalign.ubem import read_ubem, write_ubem
from modalign.vectors import NORM_BLOCK_ROWS, UNIT_TOLERANCE, EmbeddingMatrix


def make_records(n, category="fish", source=Source.LLM_CATEGORY, prefix="rec"):
    return [
        KnowledgeRecord(f"{prefix}_{i}", category, f"description {i}", source)
        for i in range(n)
    ]


def write_kb_files(tmp_path, records, vectors):
    records_path = tmp_path / "records.jsonl"
    embeddings_path = tmp_path / "embeddings.ubem"
    save_records(records_path, records)
    write_ubem(embeddings_path, EmbeddingMatrix(np.asarray(vectors, dtype=np.float32)))
    return records_path, embeddings_path


@pytest.fixture
def small_kb(tmp_path):
    records = [
        KnowledgeRecord("d0", "airplane", "a jet on a runway", Source.LLM_CATEGORY),
        KnowledgeRecord("d1", "airplane", "wings over clouds", Source.LLM_CATEGORY),
        KnowledgeRecord("s0", "airplane", "photo caption", Source.MLLM_DATA),
        KnowledgeRecord("s1", "cat", "a cat sleeping", Source.MLLM_DATA),
    ]
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((4, 8))
    paths = write_kb_files(tmp_path, records, vectors)
    return build(*paths)


class TestBuild:
    def test_minimal_well_formed(self, small_kb):
        kb = small_kb
        assert kb.size == 4
        assert set(kb.category_index) == {"airplane", "cat"}
        assert kb.category_rows("airplane") == [0, 1, 2]
        assert kb.pair_index == {"s0": 2, "s1": 3}

    def test_count_mismatch(self, tmp_path):
        paths = write_kb_files(
            tmp_path, make_records(4), np.random.default_rng(0).standard_normal((3, 8))
        )
        with pytest.raises(CountMismatch):
            build(*paths)

    def test_duplicate_id(self, tmp_path):
        records = make_records(2)
        records[1] = KnowledgeRecord(
            "n01440764_17", "fish", "x", Source.LLM_CATEGORY
        )
        records[0] = KnowledgeRecord(
            "n01440764_17", "fish", "y", Source.LLM_CATEGORY
        )
        paths = write_kb_files(tmp_path, records, np.ones((2, 4)))
        with pytest.raises(DuplicateId):
            build(*paths)

    def test_duplicate_id_names_the_file_and_line(self, tmp_path):
        records = make_records(3)
        records[2] = records[0]._replace(description="again")
        paths = write_kb_files(tmp_path, records, np.ones((3, 4)))
        text = paths[0].read_text(encoding="utf-8")
        paths[0].write_text("\n" + text, encoding="utf-8")  # blank lines still count
        with pytest.raises(DuplicateId) as info:
            build(*paths)
        assert str(info.value) == f"{paths[0]}: line 4: record id 'rec_0' appears more than once"

    def test_zero_vector_row_reported(self, tmp_path):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        paths = write_kb_files(tmp_path, make_records(3), vectors)
        with pytest.raises(ZeroVector, match="row 1"):
            build(*paths)

    def test_embeddings_normalized_on_ingest(self, small_kb):
        norms = np.linalg.norm(small_kb.embeddings.vectors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6


class TestCategoryIndex:
    @pytest.fixture
    def mixed_kb(self):
        # Categories and sources interleaved, so no category is one run of rows.
        rng = np.random.default_rng(4)
        records = [
            KnowledgeRecord(
                f"r{i}", f"c{rng.integers(5)}", "d",
                Source.MLLM_DATA if rng.integers(3) == 0 else Source.LLM_CATEGORY,
            )
            for i in range(300)
        ]
        return from_parts(records, rng.standard_normal((300, 6)))

    def test_values_are_ascending_intp_arrays(self, mixed_kb):
        assert set(mixed_kb.category_index) == {r.category for r in mixed_kb.records}
        for category, rows in mixed_kb.category_index.items():
            assert isinstance(rows, np.ndarray)
            assert rows.dtype == np.intp
            want = [i for i, r in enumerate(mixed_kb.records) if r.category == category]
            assert rows.tolist() == want

    @pytest.mark.parametrize("source", [None, Source.LLM_CATEGORY, Source.MLLM_DATA])
    def test_category_rows_are_ascending_python_ints(self, mixed_kb, source):
        for category in mixed_kb.categories():
            rows = mixed_kb.category_rows(category, source)
            assert type(rows) is list and rows
            assert all(type(r) is int for r in rows)
            assert rows == [
                i for i, r in enumerate(mixed_kb.records)
                if r.category == category and source in (None, r.source)
            ]
        assert mixed_kb.category_rows("absent", source) == []

    def test_empty_knowledge_base_has_no_categories(self):
        kb = from_parts([], np.zeros((0, 4)))
        assert kb.category_index == {}
        assert kb.category_rows("c0") == []

    def test_center_set_round_trips_with_int_member_rows(self, tmp_path, mixed_kb):
        rng = np.random.default_rng(5)
        prompts = {c: rng.standard_normal(6) for c in mixed_kb.categories()}
        path = tmp_path / "centers.cset"
        saved = localize(mixed_kb, prompts, k=7)
        save_center_set(path, saved)
        loaded = load_center_set(path)
        assert list(loaded.centers) == list(saved.centers)
        for category, center in loaded.centers.items():
            assert center.member_rows == saved.centers[category].member_rows
            assert all(type(r) is int for r in center.member_rows)
            assert set(center.member_rows) <= set(mixed_kb.category_rows(category))


class TestRecordsFile:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "category": "c", "description": "d", "source": "llm_category"}\nnot json\n')
        with pytest.raises(MalformedRecord, match="line 2"):
            load_records(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "category": "c", "description": "d"}\n')
        with pytest.raises(MalformedRecord, match="source"):
            load_records(path)

    def test_bad_source_value(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "category": "c", "description": "d", "source": "oracle"}\n')
        with pytest.raises(MalformedRecord):
            load_records(path)

    def test_empty_category_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "category": "", "description": "d", "source": "mllm_data"}\n')
        with pytest.raises(MalformedRecord):
            load_records(path)

    def test_generator_roundtrip(self, tmp_path):
        records = [
            KnowledgeRecord("a", "c", "d", Source.LLM_CATEGORY, generator="gen-4")
        ]
        path = tmp_path / "records.jsonl"
        save_records(path, records)
        assert load_records(path) == records

    def test_rows_share_category_and_generator_strings(self, tmp_path):
        path = tmp_path / "records.jsonl"
        save_records(path, make_records(3, category="heron") + [
            KnowledgeRecord("g", "heron", "d", Source.MLLM_DATA, generator="gen-4"),
            KnowledgeRecord("h", "heron", "d", Source.MLLM_DATA, generator="gen-4"),
        ])
        records = load_records(path)
        assert len({id(r.category) for r in records}) == 1
        assert records[3].generator is records[4].generator

    # Text that exercises every escape the JSON encoder makes: quotes,
    # backslashes, control characters, and text outside the BMP. Characters
    # are UTF-8-encodable: a lone surrogate cannot be written to the file.
    _text = st.text(
        st.one_of(
            st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\x85\u2028é😀𝄞'),
            st.characters(codec="utf-8"),
        )
    )

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.builds(
                KnowledgeRecord,
                _text,
                _text.filter(bool),
                _text,
                st.sampled_from(Source),
                st.one_of(st.just(""), _text),
            ),
            max_size=6,
        )
    )
    def test_save_matches_json_dumps_and_roundtrips(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        save_records(path, records)
        reference = []
        for r in records:
            obj = {
                "id": r.id,
                "category": r.category,
                "description": r.description,
                "source": r.source.value,
            }
            if r.generator:
                obj["generator"] = r.generator
            reference.append(json.dumps(obj, ensure_ascii=False) + "\n")
        assert path.read_bytes() == "".join(reference).encode("utf-8")
        assert load_records(path) == records


class TestCategoryRows:
    def test_thousand_descriptions_per_category(self, tmp_path):
        # category-description generation produces 1,000 rows per category
        records = make_records(1000, category="water snake")
        rng = np.random.default_rng(1)
        kb = from_parts(records, rng.standard_normal((1000, 4)).astype(np.float32))
        assert len(kb.category_rows("water snake")) == 1000

    def test_unknown_category_empty(self, small_kb):
        assert small_kb.category_rows("submarine") == []

    def test_source_filter(self, small_kb):
        assert small_kb.category_rows("airplane", Source.MLLM_DATA) == [2]
        assert small_kb.category_rows("cat", Source.LLM_CATEGORY) == []

    def test_rows_ascending(self, small_kb):
        rows = small_kb.category_rows("airplane")
        assert rows == sorted(rows)

    def test_partition_property(self, small_kb):
        # per source, category rows partition the row set of that source
        for source in Source:
            seen = []
            for category in small_kb.categories():
                seen.extend(small_kb.category_rows(category, source))
            expected = [
                i for i, r in enumerate(small_kb.records) if r.source == source
            ]
            assert sorted(seen) == expected
            assert len(seen) == len(set(seen))


class TestPairedTextEmbedding:
    def test_direct_lookup(self, small_kb):
        v = small_kb.embeddings.vectors[small_kb.pair_index["s1"]]
        assert np.array_equal(v, small_kb.embeddings.vectors[3])

    def test_all_samples_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        records = make_records(100, category="dog", source=Source.MLLM_DATA, prefix="img")
        kb = from_parts(records, rng.standard_normal((100, 6)))
        for row, record in enumerate(kb.records):
            got = kb.embeddings.vectors[kb.pair_index[record.id]]
            assert np.array_equal(got, kb.embeddings.vectors[row])


class TestExportRoundtrip:
    def test_export_build_identical(self, tmp_path, small_kb):
        out1 = tmp_path / "kb1"
        out2 = tmp_path / "kb2"
        write_kb_dir(small_kb, out1)
        kb2 = load_kb_dir(out1)
        write_kb_dir(kb2, out2)
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
        assert (out1 / "embeddings.ubem").read_bytes() == (out2 / "embeddings.ubem").read_bytes()
        assert kb2.records == small_kb.records
        assert kb2.embeddings.vectors.tobytes() == small_kb.embeddings.vectors.tobytes()

    def test_export_writes_the_embeddings_labels(self, tmp_path, small_kb):
        write_kb_dir(small_kb, tmp_path / "kb")
        written = read_ubem(tmp_path / "kb" / "embeddings.ubem")
        assert written.labels == [r.id for r in small_kb.records]
        assert small_kb.embeddings.labels is None
        assert load_kb_dir(tmp_path / "kb").embeddings.labels is None

    def test_ingest_idempotent_at_byte_level(self):
        rng = np.random.default_rng(5)
        records = make_records(20)
        kb1 = from_parts(records, rng.standard_normal((20, 8)))
        kb2 = from_parts(records, kb1.embeddings.vectors)
        assert kb2.embeddings.vectors.tobytes() == kb1.embeddings.vectors.tobytes()


def _whole_matrix_ingest(vectors):
    """Reference: one float64 pass over the whole matrix."""
    x = np.ascontiguousarray(vectors, dtype=np.float32)
    norms = np.linalg.norm(x.astype(np.float64), axis=1)
    needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
    out = x.copy()
    out[needs] = (x[needs].astype(np.float64) / norms[needs, None]).astype(np.float32)
    return out


class TestIngestRows:
    @pytest.fixture
    def mixed(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2 * NORM_BLOCK_ROWS + 37, 24)).astype(np.float32)
        # Every third row already unit-norm, so blocks mix both kinds.
        x[::3] = _whole_matrix_ingest(x[::3])
        return x

    def test_blocks_bit_identical_to_whole_matrix(self, mixed):
        want = _whole_matrix_ingest(mixed)
        _ingest_rows(mixed)  # in place
        assert mixed.tobytes() == want.tobytes()

    def test_owned_array_normalized_in_place(self, mixed):
        # The knowledge base owns the array it is given: ingest writes the
        # normalized rows into that same buffer and hands back nothing new.
        want = _whole_matrix_ingest(mixed)
        view = mixed[NORM_BLOCK_ROWS:]
        assert _ingest_rows(mixed) is None
        assert mixed.tobytes() == want.tobytes()
        assert view.tobytes() == want[NORM_BLOCK_ROWS:].tobytes()

    def test_unit_rows_pass_through_uncopied(self, mixed):
        unit = _whole_matrix_ingest(mixed)
        before = unit.tobytes()
        _ingest_rows(unit)
        assert unit.tobytes() == before

    def test_float64_input_converted(self, mixed):
        # from_parts is the ingest path for in-memory arrays of any dtype.
        wide = mixed.astype(np.float64)
        kb = from_parts(make_records(mixed.shape[0]), wide)
        assert kb.embeddings.vectors.dtype == np.float32
        assert kb.embeddings.vectors.tobytes() == _whole_matrix_ingest(mixed).tobytes()

    def test_from_parts_never_writes_the_callers_array(self, mixed):
        before = mixed.copy()
        kb = from_parts(make_records(mixed.shape[0]), mixed)
        assert kb.embeddings.vectors.tobytes() == _whole_matrix_ingest(before).tobytes()
        assert mixed.tobytes() == before.tobytes()
        assert not np.shares_memory(kb.embeddings.vectors, mixed)

    def test_zero_row_in_later_block_named_by_absolute_index(self, mixed):
        row = NORM_BLOCK_ROWS + 5
        mixed[row] = 0.0
        before = mixed.copy()
        with pytest.raises(ZeroVector, match=f"embedding row {row} has norm"):
            _ingest_rows(mixed)
        assert mixed.tobytes() == before.tobytes()


def test_build_and_export_hold_no_full_size_temporaries(tmp_path):
    # Build normalizes the float32 payload it read in place, so it holds one
    # payload; the records' Python objects come on top. A normalized copy
    # would add 1x and whole-matrix float64 temporaries (8 bytes per value,
    # twice over) about 4x more. Export streams both files into their temp
    # files, so it adds a small fraction of the payload; any whole-file
    # buffer of the embeddings would add at least 1x.
    rows, dim = 20_000, 128
    records = [
        KnowledgeRecord(f"r{i}", f"cat{i % 50}", f"description number {i}", Source.LLM_CATEGORY)
        for i in range(rows)
    ]
    vectors = np.random.default_rng(0).standard_normal((rows, dim)).astype(np.float32)
    paths = write_kb_files(tmp_path, records, vectors)
    payload = vectors.nbytes
    del records, vectors
    tracemalloc.start()
    try:
        kb = build(*paths)
        _, build_peak = tracemalloc.get_traced_memory()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_kb_dir(kb, tmp_path / "kb")
        _, export_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < 2.5 * payload
    assert export_peak - held < 0.25 * payload


def test_save_records_streams(tmp_path):
    # Records shaped like the synthetic generator's (about 170 bytes a line).
    records = [
        KnowledgeRecord(
            f"desc_cat{i % 8:03d}_{i:05d}",
            f"cat{i % 8:03d}",
            f"synthetic category description {i} for cat{i % 8:03d}",
            Source.LLM_CATEGORY,
            "synthetic",
        )
        for i in range(10_000)
    ]
    path = tmp_path / "records.jsonl"
    tracemalloc.start()
    try:
        save_records(path, records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4
    assert load_records(path) == records


def _build_peak(paths) -> int:
    tracemalloc.start()
    try:
        build(*paths)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_holds_nothing_of_the_ubem_label_block(tmp_path):
    # The knowledge base labels its rows with the record ids, so a label
    # block in its UBEM is checked and dropped row by row: whether the file
    # has one must not move the peak by the size of the decoded labels.
    rows = 20_000
    records = [
        KnowledgeRecord(f"row-{i:06d}", f"cat{i % 40}", f"text {i}", Source.LLM_CATEGORY)
        for i in range(rows)
    ]
    vectors = np.random.default_rng(1).standard_normal((rows, 16)).astype(np.float32)
    plain = write_kb_files(tmp_path, records, vectors)
    labelled = tmp_path / "labelled.ubem"
    # Labels longer than the ids, so that holding them would outweigh the
    # other transients of a build; their text is never used.
    labels = [f"{r.id}-{'x' * 120}" for r in records]
    write_ubem(labelled, EmbeddingMatrix(vectors, labels))
    labels_size = sys.getsizeof(labels) + sum(map(sys.getsizeof, labels))
    del records, vectors, labels
    build(*plain)  # warm-up: first-call allocations count in neither peak
    without = _build_peak(plain)
    with_labels = _build_peak((plain[0], labelled))
    assert abs(with_labels - without) < 0.1 * labels_size


def test_build_checks_the_labels_it_drops(tmp_path):
    records = make_records(3)
    records_path, embeddings_path = write_kb_files(tmp_path, records, np.ones((3, 4)))
    write_ubem(embeddings_path, EmbeddingMatrix(np.ones((3, 4), np.float32), ["a", "b", "c"]))
    raw = embeddings_path.read_bytes()
    embeddings_path.write_bytes(raw[:-6] + b"\xff" + raw[-5:])  # the second label's one byte
    with pytest.raises(ValueError) as info:
        build(records_path, embeddings_path)
    assert str(info.value) == (
        f"{embeddings_path}: label of row 1: "
        "invalid UTF-8 (byte 0xff at offset 0: invalid start byte)"
    )
