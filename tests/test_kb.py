import io
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
from kbfiles import kb_from_parts, kb_rows, whole_matrix_ingest, write_kb_files
from modalign import kb as kb_module
from modalign.kb import (
    KnowledgeRecord,
    Source,
    build,
    load_kb_dir,
    load_records,
    save_records,
    write_kb_dir,
    _ingest_rows,
)
from modalign.centers import load_center_set, localize, save_center_set
from modalign.training import resolve_pairs
from modalign.ubem import read_ubem, write_ubem
from modalign.vectors import (
    NORM_BLOCK_ROWS,
    UNIT_TOLERANCE,
    EmbeddingMatrix,
    normalize_rows,
    row_norms,
)


def make_records(n, category="fish", source=Source.LLM_CATEGORY, prefix="rec"):
    return [
        KnowledgeRecord(f"{prefix}_{i}", category, f"description {i}", source)
        for i in range(n)
    ]


def assert_indexes_match_a_scan(columns, records) -> None:
    """Each category's rows, in order of first appearance, and each paired
    sample's row equal those of a plain scan of `records`."""
    category_rows: dict[str, list[int]] = {}
    for row, r in enumerate(records):
        category_rows.setdefault(r.category, []).append(row)
    pairs = {r.id: row for row, r in enumerate(records) if r.source == Source.MLLM_DATA}
    assert list(columns.category_index) == list(category_rows)
    for category, rows in columns.category_index.items():
        assert rows.dtype == np.intp
        assert rows.tolist() == category_rows[category]
    assert columns.pair_index == pairs


def parsed_text(path) -> str:
    """The canonical lines `load_records` writes for the records file `path`."""
    sink = io.StringIO(newline="")
    load_records(path, sink)
    return sink.getvalue()


SMALL_RECORDS = [
    KnowledgeRecord("d0", "airplane", "a jet on a runway", Source.LLM_CATEGORY),
    KnowledgeRecord("d1", "airplane", "wings over clouds", Source.LLM_CATEGORY),
    KnowledgeRecord("s0", "airplane", "photo caption", Source.MLLM_DATA),
    KnowledgeRecord("s1", "cat", "a cat sleeping", Source.MLLM_DATA),
]


@pytest.fixture
def small_paths(tmp_path):
    rng = np.random.default_rng(3)
    return write_kb_files(tmp_path, SMALL_RECORDS, rng.standard_normal((4, 8)))


@pytest.fixture
def small_kb(small_paths):
    return build(*small_paths)


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

    @pytest.mark.parametrize("later", ["count", "malformed", "ubem"])
    def test_repeated_id_is_named_before_later_faults(self, tmp_path, later):
        # The records are checked line by line as they are parsed, so a
        # repeated id is named before a later malformed line, before any
        # fault of the embeddings file and before a count mismatch.
        records = make_records(4)
        records[1] = records[0]
        rows = 3 if later == "count" else 4
        records_path, embeddings_path = write_kb_files(tmp_path, records, np.ones((rows, 4)))
        if later == "malformed":
            with open(records_path, "a", encoding="utf-8") as f:
                f.write("not json\n")
        elif later == "ubem":
            embeddings_path.write_bytes(embeddings_path.read_bytes()[:30])
        with pytest.raises(DuplicateId) as info:
            build(records_path, embeddings_path)
        assert str(info.value) == (
            f"{records_path}: line 2: record id 'rec_0' appears more than once"
        )

    def test_malformed_line_is_named_before_a_later_repeated_id(self, tmp_path):
        records = make_records(4)
        records[3] = records[0]
        records_path, embeddings_path = write_kb_files(tmp_path, records, np.ones((4, 4)))
        lines = records_path.read_text(encoding="utf-8").splitlines(keepends=True)
        records_path.write_text("".join(lines[:1] + ["[]\n"] + lines[2:]), encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            build(records_path, embeddings_path)
        assert str(info.value) == f"{records_path}: line 2: record is not a JSON object"

    def test_zero_vector_row_reported(self, tmp_path):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        paths = write_kb_files(tmp_path, make_records(3), vectors)
        with pytest.raises(ZeroVector, match="row 1"):
            build(*paths)

    def test_embeddings_normalized_on_ingest(self, small_kb):
        norms = np.linalg.norm(kb_rows(small_kb).astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6


class TestCategoryIndex:
    @pytest.fixture
    def mixed_records(self):
        # Categories and sources interleaved, so no category is one run of rows.
        rng = np.random.default_rng(4)
        return [
            KnowledgeRecord(
                f"r{i}", f"c{rng.integers(5)}", "d",
                Source.MLLM_DATA if rng.integers(3) == 0 else Source.LLM_CATEGORY,
            )
            for i in range(300)
        ]

    @pytest.fixture
    def mixed_kb(self, mixed_records):
        return kb_from_parts(mixed_records, np.random.default_rng(5).standard_normal((300, 6)))

    def test_values_are_ascending_intp_arrays(self, mixed_kb, mixed_records):
        assert set(mixed_kb.category_index) == {r.category for r in mixed_records}
        for category, rows in mixed_kb.category_index.items():
            assert isinstance(rows, np.ndarray)
            assert rows.dtype == np.intp
            want = [i for i, r in enumerate(mixed_records) if r.category == category]
            assert rows.tolist() == want

    @pytest.mark.parametrize("source", [None, Source.LLM_CATEGORY, Source.MLLM_DATA])
    def test_category_rows_are_ascending_python_ints(self, mixed_kb, mixed_records, source):
        for category in mixed_kb.categories():
            rows = mixed_kb.category_rows(category, source)
            assert type(rows) is list and rows
            assert all(type(r) is int for r in rows)
            assert rows == [
                i for i, r in enumerate(mixed_records)
                if r.category == category and source in (None, r.source)
            ]
        assert mixed_kb.category_rows("absent", source) == []

    def test_empty_knowledge_base_has_no_categories(self):
        kb = kb_from_parts([], np.zeros((0, 4)))
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

    @pytest.mark.parametrize("field", ["id", "category", "description", "generator"])
    def test_lone_surrogate_is_malformed_without_a_sink(self, tmp_path, field):
        record = {"id": "a", "category": "c", "description": "d", "source": "llm_category"}
        record[field] = "é\udc80"
        path = tmp_path / "records.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            load_records(path)
        assert str(info.value) == (
            f"{path}: line 2: field {field!r} holds a lone surrogate (U+DC80 at index 1)"
        )

    def test_generator_roundtrip(self, tmp_path):
        records = [
            KnowledgeRecord("a", "c", "d", Source.LLM_CATEGORY, generator="gen-4")
        ]
        path = tmp_path / "records.jsonl"
        save_records(path, records)
        assert '"generator": "gen-4"}' in parsed_text(path)
        assert parsed_text(path).encode("utf-8") == path.read_bytes()

    def test_columns_hold_no_description_or_generator_text(self, tmp_path):
        # Of each record only its id, its source code and its row in the
        # indexes outlive the parse, plus one string per category:
        # descriptions and generators are only written back out.
        rows = 5_000
        records = [
            KnowledgeRecord(
                f"r{i}", f"cat{i % 3}", f"description {i} " * 100,
                Source.MLLM_DATA if i % 2 else Source.LLM_CATEGORY, f"generator {i} " * 50,
            )
            for i in range(rows)
        ]
        path = tmp_path / "records.jsonl"
        save_records(path, records)
        text_size = sum(sys.getsizeof(r.description) + sys.getsizeof(r.generator) for r in records)
        tracemalloc.start()
        try:
            columns = load_records(path, io.StringIO())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.1 * text_size
        assert list(columns.ids) == [r.id for r in records]
        assert columns.sources.dtype == np.uint8
        assert columns.sources.tolist() == [i % 2 for i in range(rows)]
        assert_indexes_match_a_scan(columns, records)

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
        # The parse writes the same lines back, all of them: a repeated id is
        # named once the whole file has been read.
        ids = [r.id for r in records]
        repeat = next((i for i, rid in enumerate(ids) if rid in ids[:i]), None)
        sink = io.StringIO(newline="")
        if repeat is None:
            columns = load_records(path, sink)
            assert list(columns.ids) == ids
            assert [list(Source)[code] for code in columns.sources] == [r.source for r in records]
            assert_indexes_match_a_scan(columns, records)
        else:
            with pytest.raises(DuplicateId) as info:
                load_records(path, sink)
            assert str(info.value) == (
                f"{path}: line {repeat + 1}: record id {ids[repeat]!r} appears more than once"
            )
        assert sink.getvalue() == "".join(reference)


class TestRepeatedIds:
    # Few distinct ids, ASCII and not, so that repeats are common.
    _ids = st.text(st.sampled_from("ab é😀"), max_size=2)
    _entries = st.lists(
        st.one_of(
            _ids.map(lambda rid: ("id", rid)),
            st.sampled_from([("blank", ""), ("blank", " \t"), ("bad", "[]")]),
        ),
        max_size=12,
    )

    @settings(deadline=None, max_examples=100)
    @given(_entries)
    def test_the_fault_a_seen_set_meets_first_is_named(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        lines = [
            json.dumps(
                {"id": value, "category": "c", "description": "d", "source": "llm_category"},
                ensure_ascii=False,
            ) if kind == "id" else value
            for kind, value in entries
        ]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # The reference: one line at a time, the first malformed line or
        # repeated id, blank lines counted.
        seen, ids, fault = set(), [], None
        for line_number, (kind, value) in enumerate(entries, start=1):
            if kind == "bad":
                fault = MalformedRecord, f"line {line_number}: record is not a JSON object"
            elif kind == "id" and value in seen:
                fault = DuplicateId, f"line {line_number}: record id {value!r} appears more than once"
            if fault:
                break
            if kind == "id":
                seen.add(value)
                ids.append(value)
        if fault is None:
            assert list(load_records(path).ids) == ids
        else:
            with pytest.raises(fault[0]) as info:
                load_records(path)
            assert str(info.value) == f"{path}: {fault[1]}"

    def test_colliding_hashes_name_the_first_true_repeat(self, tmp_path, monkeypatch):
        # Every id hashes alike, so only comparing the ids tells a repeat.
        monkeypatch.setattr(kb_module, "_id_hash", lambda rid: 7)
        path = tmp_path / "records.jsonl"
        records = make_records(6)
        save_records(path, records)
        assert list(load_records(path).ids) == [r.id for r in records]
        ids = ["a", "b", "c", "b", "a", "c"]
        save_records(path, [r._replace(id=rid) for r, rid in zip(records, ids)])
        with pytest.raises(DuplicateId) as info:
            load_records(path)
        assert str(info.value) == f"{path}: line 4: record id 'b' appears more than once"


class TestCategoryRows:
    def test_thousand_descriptions_per_category(self, tmp_path):
        # category-description generation produces 1,000 rows per category
        records = make_records(1000, category="water snake")
        rng = np.random.default_rng(1)
        kb = kb_from_parts(records, rng.standard_normal((1000, 4)).astype(np.float32))
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
                i for i, r in enumerate(SMALL_RECORDS) if r.source == source
            ]
            assert sorted(seen) == expected
            assert len(seen) == len(set(seen))


class TestPairedTextEmbedding:
    def test_direct_lookup(self, small_kb):
        v = small_kb.read_rows([small_kb.pair_index["s1"]])
        assert np.array_equal(v, kb_rows(small_kb)[3:4])

    def test_all_samples_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        records = make_records(100, category="dog", source=Source.MLLM_DATA, prefix="img")
        kb = kb_from_parts(records, rng.standard_normal((100, 6)))
        rows = kb_rows(kb)
        for row, record in enumerate(records):
            got = kb.read_rows([kb.pair_index[record.id]])
            assert np.array_equal(got, rows[row : row + 1])


class TestExportRoundtrip:
    def test_export_build_identical(self, tmp_path, small_paths):
        out1 = tmp_path / "kb1"
        out2 = tmp_path / "kb2"
        with write_kb_dir(out1) as sink:
            kb1 = build(*small_paths, sink)
        with write_kb_dir(out2) as sink:
            kb2 = build(out1 / "records.jsonl", out1 / "embeddings.ubem", sink)
        # save_records writes canonical lines, so the parse writes them back as read.
        assert (out1 / "records.jsonl").read_bytes() == small_paths[0].read_bytes()
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
        assert (out1 / "embeddings.ubem").read_bytes() == (out2 / "embeddings.ubem").read_bytes()
        assert list(kb2.ids) == list(kb1.ids) == [r.id for r in SMALL_RECORDS]
        assert kb2.sources.tolist() == kb1.sources.tolist() == [0, 0, 1, 1]
        assert kb2.pair_index == kb1.pair_index
        assert kb2.category_index.keys() == kb1.category_index.keys()
        for category, rows in kb1.category_index.items():
            assert kb2.category_index[category].tolist() == rows.tolist()
        assert kb_rows(kb2).tobytes() == kb_rows(kb1).tobytes()
        # Each knowledge base reads its rows from the file its build wrote.
        assert (kb1.path, kb2.path) == (out1 / "embeddings.ubem", out2 / "embeddings.ubem")

    def test_export_writes_the_embeddings_labels(self, tmp_path, small_paths):
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*small_paths, sink)
        written = read_ubem(tmp_path / "kb" / "embeddings.ubem")
        ids = [r.id for r in SMALL_RECORDS]
        assert written.labels == ids == list(kb.ids)
        # The written payload is the normalized rows, as the knowledge base reads them.
        assert written.vectors.tobytes() == kb_rows(kb).tobytes()
        assert list(load_kb_dir(tmp_path / "kb").ids) == ids

    def test_export_builds_no_matrix(self, tmp_path, small_paths, monkeypatch):
        # Each block is checked once as it is read; a new EmbeddingMatrix
        # would scan the whole payload for NaN and Inf again.
        def built(self):
            raise AssertionError("build built an EmbeddingMatrix")

        monkeypatch.setattr(EmbeddingMatrix, "__post_init__", built)
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*small_paths, sink)
        monkeypatch.undo()
        assert read_ubem(tmp_path / "kb" / "embeddings.ubem").labels == list(kb.ids)

    def test_ingest_idempotent_at_byte_level(self):
        rng = np.random.default_rng(5)
        records = make_records(20)
        kb1 = kb_from_parts(records, rng.standard_normal((20, 8)))
        kb2 = kb_from_parts(records, kb_rows(kb1))
        assert kb_rows(kb2).tobytes() == kb_rows(kb1).tobytes()


@pytest.mark.parametrize("reader", ["localize", "resolve_pairs", "read_unit_rows"])
@pytest.mark.parametrize("fault", ["nan", "inf", "zero", "replaced"])
def test_row_spoiled_after_build_raises_naming_file_and_row(tmp_path, small_paths, fault, reader):
    # The knowledge base reads its rows back from the file its build wrote,
    # and checks each row it reads again: a row spoiled after the build
    # raises, naming the file and the row, and is never scored; a file
    # replaced by one of another shape raises, naming the file.
    with write_kb_dir(tmp_path / "kb") as sink:
        kb = build(*small_paths, sink)
    row = kb.pair_index["s1"]  # category "cat"'s one row
    if fault == "replaced":
        write_ubem(kb.path, EmbeddingMatrix(np.ones((3, kb.dim), np.float32)))
        error, problem = ValueError, "holds 3 rows of dim 8, not the knowledge base's 4 rows of dim 8"
    else:
        with open(kb.path, "r+b") as f:
            f.seek(20 + row * kb.dim * 4)
            value = {"nan": np.nan, "inf": np.inf, "zero": 0.0}[fault]
            f.write(np.full(kb.dim, value, "<f4").tobytes())
    if fault in ("nan", "inf"):
        error, problem = ValueError, f"embedding matrix contains NaN or Inf in row {row}"
    elif fault == "zero":
        error, problem = ZeroVector, f"embedding row {row} has norm 0.000e+00"
    prompts = {"airplane": np.ones(kb.dim), "cat": np.ones(kb.dim)}
    with pytest.raises(error) as info:
        if reader == "localize":
            localize(kb, prompts, k=2)
        elif reader == "resolve_pairs":
            resolve_pairs([("s0", 0), ("s1", 1)], np.ones((2, kb.dim)), kb)
        else:
            kb.read_unit_rows([0, row])
    assert str(info.value) == f"{kb.path}: {problem}"


@pytest.mark.parametrize("export", [True, False])
def test_read_unit_rows_are_the_normalized_read_rows(tmp_path, export):
    # Exported rows are unit, so the read reuses the norms of its ingest
    # check; the input file's raw rows, every third one already unit, are
    # rescaled as they are read, and their norms are taken again.
    rng = np.random.default_rng(13)
    n = NORM_BLOCK_ROWS + 1
    x = rng.standard_normal((n, 16)).astype(np.float32)
    x[::3] = whole_matrix_ingest(x[::3])
    paths = write_kb_files(tmp_path, make_records(n), x)
    if export:
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*paths, sink)
    else:
        kb = build(*paths)
    for rows in ([5, 3, 900, 901, 902, 0], [7], list(range(n)), [n - 1]):
        got = kb.read_unit_rows(rows)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == normalize_rows(kb.read_rows(rows)).tobytes()


def _ingest(x, path="m.ubem"):
    """`_ingest_rows` on all of `x`, as rows 0.. of the file `path`."""
    return _ingest_rows(x, path, range(len(x)))


class TestIngestRows:
    @pytest.fixture
    def mixed(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2 * NORM_BLOCK_ROWS + 37, 24)).astype(np.float32)
        # Every third row already unit-norm, so blocks mix both kinds.
        x[::3] = whole_matrix_ingest(x[::3])
        return x

    def test_blocks_bit_identical_to_whole_matrix(self, mixed):
        want = whole_matrix_ingest(mixed)
        _ingest(mixed)  # in place
        assert mixed.tobytes() == want.tobytes()

    def test_owned_array_normalized_in_place(self, mixed):
        # Ingest writes the normalized rows into the buffer it is given and
        # hands back nothing new.
        want = whole_matrix_ingest(mixed)
        view = mixed[NORM_BLOCK_ROWS:]
        assert _ingest(mixed) is None
        assert mixed.tobytes() == want.tobytes()
        assert view.tobytes() == want[NORM_BLOCK_ROWS:].tobytes()

    def test_unit_rows_pass_through_uncopied(self, mixed):
        unit = whole_matrix_ingest(mixed)
        before = unit.tobytes()
        _ingest(unit)
        assert unit.tobytes() == before

    def test_read_rows_equal_the_whole_matrix_ingest(self, tmp_path, mixed):
        # Build checks and normalizes the file one block at a time, and the
        # knowledge base reads back the exported rows, or normalizes the
        # input's rows again as it reads them: the same bits either way.
        paths = write_kb_files(tmp_path, make_records(mixed.shape[0]), mixed)
        want = whole_matrix_ingest(mixed).tobytes()
        with write_kb_dir(tmp_path / "kb") as sink:
            exported = build(*paths, sink)
        assert exported.path == tmp_path / "kb" / "embeddings.ubem"
        assert read_ubem(exported.path).vectors.tobytes() == want
        kb = build(*paths)
        assert kb.path == paths[1]
        for rows in (kb_rows(exported), kb_rows(kb)):
            assert rows.dtype == np.float32
            assert rows.tobytes() == want

    def test_build_never_writes_its_input_file(self, tmp_path, mixed):
        paths = write_kb_files(tmp_path, make_records(mixed.shape[0]), mixed)
        before = paths[1].read_bytes()
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*paths, sink)
        assert paths[1].read_bytes() == before
        assert kb_rows(kb).tobytes() == whole_matrix_ingest(mixed).tobytes()

    @pytest.mark.parametrize("scaled", ["every", "some", "no"])
    def test_rescale_gives_the_masked_divide_bytes(self, scaled):
        # A block whose rows all need scaling is divided without a mask; the
        # bytes are those of one masked divide whatever the block holds, and
        # the norms come back only when no row was rescaled.
        rng = np.random.default_rng(12)
        n = NORM_BLOCK_ROWS + 1
        raw = rng.standard_normal((n, 24))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        inside = [1.0, 1 - 0.9 * UNIT_TOLERANCE, 1 + 0.9 * UNIT_TOLERANCE]
        outside = [1 - 1.1 * UNIT_TOLERANCE, 1 + 1.1 * UNIT_TOLERANCE, 0.5, 3.0]
        pool = {"every": outside, "some": inside + outside, "no": inside}[scaled]
        x = (unit * rng.choice(pool, n)[:, None]).astype(np.float32)
        x[: len(pool)] = (unit[: len(pool)] * np.array(pool)[:, None]).astype(np.float32)
        norms = row_norms(x)
        needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
        # Each scale lands on its side of the tolerance once rounded to float32.
        assert needs[: len(pool)].tolist() == [v not in inside for v in pool]
        kinds = {"every": (True, True), "some": (False, True), "no": (False, False)}
        assert (needs.all(), needs.any()) == kinds[scaled]
        want = x.copy()
        np.divide(want, norms[:, None], out=want, where=needs[:, None], casting="same_kind")
        before = x.copy()
        got = _ingest(x)
        assert x.tobytes() == want.tobytes()
        assert x[~needs].tobytes() == before[~needs].tobytes()  # inside rows keep their bytes
        if scaled == "no":
            assert got.tobytes() == norms.tobytes()
        else:
            assert got is None

    def test_zero_row_in_later_block_named_by_absolute_index(self, mixed):
        row = NORM_BLOCK_ROWS + 5
        mixed[row] = 0.0
        before = mixed.copy()
        with pytest.raises(ZeroVector, match=f"^m.ubem: embedding row {row} has norm"):
            _ingest(mixed)
        assert mixed.tobytes() == before.tobytes()


def test_build_and_export_hold_no_full_size_temporaries(tmp_path):
    # Build reads the embeddings one block at a time into one reused buffer
    # and streams each normalized block into the export's temp file;
    # localize reads one category block at a time, and resolve_pairs only
    # the paired rows. So no step holds the float32 payload, or any
    # full-size temporary: together they trace under half of it.
    rows, dim, paired = 20_000, 256, 128
    records = [
        KnowledgeRecord(f"r{i}", f"cat{i % 8}", f"description number {i}", Source.LLM_CATEGORY)
        for i in range(rows - paired)
    ]
    records.sort(key=lambda r: r.category)  # each category one run of rows
    records += [
        KnowledgeRecord(f"s{i}", f"cat{i % 8}", f"caption {i}", Source.MLLM_DATA)
        for i in range(paired)
    ]
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((rows, dim)).astype(np.float32)
    paths = write_kb_files(tmp_path, records, vectors)
    payload = vectors.nbytes
    prompts = {f"cat{c}": rng.standard_normal(dim) for c in range(8)}
    visual = rng.standard_normal((paired, dim))
    pairs = [(f"s{i}", i) for i in range(paired)]
    del records, vectors
    tracemalloc.start()
    try:
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*paths, sink)
        centers = localize(kb, prompts, k=50)
        texts = resolve_pairs(pairs, visual, kb)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "kb" / "records.jsonl").read_bytes() == paths[0].read_bytes()
    assert centers.members.rows == 8 * 50 and texts.shape == (paired, dim)
    assert peak < 0.5 * payload


def test_parsed_ids_are_held_as_one_label_block(tmp_path):
    # The columns hold each id once, as its bytes in the label block, plus
    # one uint64 end offset, one uint8 source code and one intp row in its
    # category's rows: no str per id, no set of them.
    rows = 20_000
    records = [
        KnowledgeRecord(
            f"desc_cat{i % 8:03d}_{i:05d}", f"cat{i % 8:03d}", f"description {i}",
            Source.LLM_CATEGORY, "synthetic",
        )
        for i in range(rows)
    ]
    path = tmp_path / "records.jsonl"
    save_records(path, records)
    block = 1 + sum(4 + len(r.id.encode("utf-8")) for r in records)
    per_record = block / rows + 8 + 1 + np.dtype(np.intp).itemsize
    del records
    load_records(path)  # warm-up: first-call allocations are not the result's
    tracemalloc.start()
    try:
        columns = load_records(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(columns.ids) == rows and not columns.pair_index
    # Growing arrays over-allocate by up to an eighth.
    assert held / rows < 1.2 * per_record


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
    assert parsed_text(path).encode("utf-8") == path.read_bytes()
    assert list(load_records(path).ids) == [r.id for r in records]


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
