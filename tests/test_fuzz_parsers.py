"""Property tests: every parser of outside input either returns a valid
object or raises ModalignError/ValueError, whatever JSON it is handed."""

import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbfiles import kb_from_parts
from modalign.cli import main
from modalign.centers import CenterSet, load_center_set, localize, save_center_set
from modalign.errors import DuplicateId, MalformedRecord, ModalignError
from modalign.kb import KnowledgeRecord, Source, load_records
from modalign.pipeline import (
    PipelineConfig,
    load_labels,
    load_pairs_file,
    load_pipeline_config,
    load_relevance,
)
from modalign.serialize import read_jsonl
from modalign.synthetic import SyntheticSpec, generate_synthetic
from modalign.training import (
    LinearAdapter,
    TrainConfig,
    default_adapter,
    load_adapter,
    load_train_config,
    save_adapter,
)

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def objects_with_keys(keys):
    """JSON objects whose keys are mostly drawn from `keys`."""
    return st.dictionaries(st.sampled_from(sorted(keys)) | st.text(max_size=8), json_values)


def nested_objects(value):
    """Every JSON object nested anywhere inside `value`."""
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    for child in children:
        if isinstance(child, dict):
            yield child
        yield from nested_objects(child)


def mutated(header: dict):
    """`header` with one key, at the top or in one nested object, replaced by
    an arbitrary JSON value or deleted."""

    @st.composite
    def build(draw):
        out = json.loads(json.dumps(header))
        target = out
        entries = list(nested_objects(out))
        if entries and draw(st.booleans()):
            target = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(json_values)
        return out

    return build()


def header_and_blobs(path):
    header_line, blobs = path.read_bytes().split(b"\n", 1)
    return json.loads(header_line), blobs


def write_with_header(path, header, blobs):
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)


def parses_or_rejects(load, path):
    try:
        return load(path)
    except (ModalignError, ValueError):
        return None


@given(obj=json_values | objects_with_keys(TrainConfig.__dataclass_fields__))
@FUZZ
def test_train_config_yields_a_config_or_a_value_error(tmp_path, obj):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(obj))
    config = parses_or_rejects(load_train_config, path)
    assert config is None or isinstance(config, TrainConfig)


pair_lines = st.fixed_dictionaries({"sample_id": json_values, "visual_row": json_values})


@given(lines=st.lists(json_values | pair_lines, max_size=4))
@FUZZ
def test_pairs_file_yields_pairs_or_a_malformed_record(tmp_path, lines):
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    pairs = parses_or_rejects(load_pairs_file, path)
    if pairs is not None:
        # Every row is taken as written, never converted.
        assert all(type(line["visual_row"]) is int for line in lines)
        assert pairs == [(line["sample_id"], line["visual_row"]) for line in lines]
        assert len({s for s, _ in pairs}) == len({row for _, row in pairs}) == len(pairs)


VALID_PIPELINE_CONFIG = {
    "records": "records.jsonl",
    "embeddings": "kb.ubem",
    "prompts": "prompts.ubem",
    "labels": "labels.jsonl",
    "modalities": {
        "mod0": {"visual": "mod0.ubem", "pairs": "mod0_pairs.jsonl"},
        "mod1": {"visual": "mod1.ubem", "pairs": "mod1_pairs.jsonl"},
    },
    "out_dir": "run",
    "k": 5,
    "retrieval_ks": [1, 5],
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 0.01, "optimizer": "adam"},
    "source_filter": "llm_category",
    "dump_projection": False,
}


@given(config=mutated(VALID_PIPELINE_CONFIG))
@FUZZ
def test_pipeline_config_yields_a_config_or_a_value_error_naming_the_file(tmp_path, config):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    try:
        loaded = load_pipeline_config(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert isinstance(loaded, PipelineConfig)


# Lines biased toward JSON: whole values, fragments of them, whitespace that
# JSON accepts and whitespace that only `str.strip` accepts, a leading BOM,
# and two values on one line. "\n" and "\r" end a line, so they appear only
# as the terminator.
_json_text = json_values.map(json.dumps)
_fragments = st.sampled_from(
    ["{", "}", "[", "]", ",", ":", '"', "\\", "\\u12", "tru", "null", "-", "1e", "0.5", "NaN",
     "Infinity", '"a"', '{"id": ', "\ufeff"]
)
_pad = st.text(st.sampled_from(" \t\x0c\x0b\x1c\x85\xa0\u2028\u3000"), max_size=3)
_body = st.lists(_json_text | _fragments | st.text(max_size=6), min_size=1, max_size=3).map("".join)
jsonl_lines = st.builds(
    lambda bom, lead, body, trail: bom + lead + body + trail,
    st.sampled_from(["", "", "", "\ufeff"]),
    _pad,
    _body | _json_text,
    _pad,
).filter(lambda line: "\n" not in line and "\r" not in line)


def _loads_or_message(line: str):
    """`json.loads(line)`, or the message `read_jsonl` must raise for it."""
    try:
        return json.loads(line), None
    except json.JSONDecodeError as e:
        return None, f"invalid JSON ({e.msg})"
    except RecursionError:
        return None, "invalid JSON (nested too deeply)"


@given(lines=st.lists(jsonl_lines, min_size=1, max_size=3), final_newline=st.booleans())
@FUZZ
def test_read_jsonl_yields_json_loads_or_its_message(tmp_path, lines, final_newline):
    path = tmp_path / "lines.jsonl"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    got = read_jsonl(path)
    for line_number, line in enumerate(lines, start=1):
        if line_number < len(lines) or final_newline:
            line += "\n"
        if not line.strip():
            continue
        want, message = _loads_or_message(line)
        if message is None:
            number, value = next(got)
            assert number == line_number
            assert repr(value) == repr(want)
        else:
            with pytest.raises(MalformedRecord) as excinfo:
                next(got)
            assert str(excinfo.value) == f"{path}: line {line_number}: {message}"
            return
    assert next(got, None) is None


# Strings that may hold lone surrogates (category Cs), which `json.dumps`
# writes as escapes and UTF-8 cannot encode.
surrogate_texts = st.text(st.characters(categories=["Cs"]) | st.characters(), max_size=4)
sources = st.sampled_from([s.value for s in Source])
record_lines = json_values | objects_with_keys(
    ("id", "category", "description", "source", "generator")
) | st.fixed_dictionaries(
    {"id": json_values, "category": json_values, "description": json_values,
     "source": sources | json_values},
    optional={"generator": json_values},
) | st.fixed_dictionaries(
    {"id": surrogate_texts, "category": surrogate_texts.filter(bool),
     "description": surrogate_texts, "source": sources},
    optional={"generator": surrogate_texts},
)


def records_ids(path):
    """The ids `load_records` parses, writing each line to a UTF-8 stream as
    `kb build` writes its records file."""
    return list(load_records(path, io.TextIOWrapper(io.BytesIO(), "utf-8")).ids)
label_lines = json_values | st.fixed_dictionaries({"id": json_values, "category": json_values})
relevance_lines = json_values | st.fixed_dictionaries(
    {"query_id": json_values, "relevant": json_values | st.lists(st.text(max_size=4), max_size=3)}
)


@pytest.mark.parametrize(
    "load, lines, written",
    [
        (
            records_ids,
            record_lines,
            lambda drawn: [x["id"] for x in drawn],
        ),
        (load_labels, label_lines, lambda drawn: {x["id"]: x["category"] for x in drawn}),
        (
            load_relevance,
            relevance_lines,
            lambda drawn: {x["query_id"]: set(x["relevant"]) for x in drawn},
        ),
    ],
    ids=["records", "labels", "relevance"],
)
@FUZZ
@given(data=st.data())
def test_jsonl_parsers_yield_results_or_a_malformed_record(tmp_path, load, lines, written, data):
    drawn = data.draw(st.lists(lines, max_size=4))
    path = tmp_path / "fuzz.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in drawn))
    try:
        parsed = load(path)
    except (MalformedRecord, DuplicateId) as e:  # only records raise DuplicateId
        assert str(e).startswith(f"{path}: line ")
        return
    assert len(parsed) == len(drawn)
    if written is not None:
        # Ids, categories and relevant items are the JSON strings written,
        # never converted.
        assert parsed == written(drawn)


@pytest.fixture(scope="module")
def center_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    records = [
        KnowledgeRecord(f"{c}_{i}", c, "text", Source.LLM_CATEGORY) for c in "ab" for i in range(4)
    ]
    kb = kb_from_parts(records, rng.standard_normal((8, 5)))
    path = tmp_path_factory.mktemp("cset") / "valid.cset"
    save_center_set(path, localize(kb, {c: rng.standard_normal(5) for c in "ab"}, k=3))
    return header_and_blobs(path)


@pytest.fixture(scope="module")
def adapter_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("adapter") / "valid.adapter"
    save_adapter(path, default_adapter(3, 4, seed=0, modality="image"))
    return header_and_blobs(path)


@given(data=st.data())
@FUZZ
def test_center_set_header_yields_a_center_set_or_a_value_error(tmp_path, center_file, data):
    header, blobs = center_file
    path = tmp_path / "fuzz.cset"
    write_with_header(path, data.draw(json_values | mutated(header)), blobs)
    loaded = parses_or_rejects(load_center_set, path)
    if loaded is not None:
        assert isinstance(loaded, CenterSet)
        for name, center in loaded.centers.items():
            assert isinstance(name, str) and isinstance(center.k_requested, int)
            assert len(center.member_rows) == len(center.member_scores) == center.size


@given(data=st.data())
@FUZZ
def test_adapter_header_yields_an_adapter_or_a_value_error(tmp_path, adapter_file, data):
    header, blobs = adapter_file
    path = tmp_path / "fuzz.adapter"
    write_with_header(path, data.draw(json_values | mutated(header)), blobs)
    loaded = parses_or_rejects(load_adapter, path)
    if loaded is not None:
        assert isinstance(loaded, LinearAdapter) and isinstance(loaded.modality, str)
        assert (loaded.dim_in, loaded.dim_out) == (3, 4)


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    spec = SyntheticSpec(
        categories=2, modalities=2, samples_per_class=2, dim=4, descriptions_per_class=3, seed=1,
    )
    return generate_synthetic(spec, tmp_path_factory.mktemp("tiny_bundle"))


@st.composite
def mutated_bytes(draw, raw: bytes):
    """`raw` truncated, with one byte flipped, or with a span replaced by
    other bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    end = draw(st.integers(at, min(len(raw), at + 32)))
    return raw[:at] + draw(st.binary(max_size=32)) + raw[end:]


@given(data=st.data())
@settings(FUZZ, max_examples=150)
def test_kb_build_and_stats_on_a_mutated_embeddings_file_exit_0_or_2(
    tmp_path, tiny_bundle, capsys, data
):
    # `kb build` on the bundle's records and a mutated KB embeddings UBEM
    # ends in exit 0, or in exit 2 with the file named, never a traceback;
    # `kb stats` then reads what a clean build wrote.
    path = tmp_path / "kb.ubem"
    path.write_bytes(data.draw(mutated_bytes(tiny_bundle.kb_embeddings.read_bytes())))
    out = tempfile.mkdtemp(dir=tmp_path)
    capsys.readouterr()
    code = main([
        "kb", "build", "--records", str(tiny_bundle.records), "--embeddings", str(path),
        "--out", out,
    ])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"error: {path}: ")
        return
    assert main(["kb", "stats", "--kb", out]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_center_set(tiny_bundle, tmp_path_factory):
    """The bytes of a center set localized from the tiny bundle's KB."""
    root = tmp_path_factory.mktemp("tiny_cset")
    assert main([
        "kb", "build", "--records", str(tiny_bundle.records),
        "--embeddings", str(tiny_bundle.kb_embeddings), "--out", str(root / "kb"),
    ]) == 0
    assert main([
        "centers", "localize", "--kb", str(root / "kb"), "--prompts", str(tiny_bundle.prompts),
        "--k", "2", "--out", str(root / "centers.cset"),
    ]) == 0
    return (root / "centers.cset").read_bytes()


@pytest.mark.parametrize("mode", ["center_max", "prompt_mean"])
@given(data=st.data())
@settings(FUZZ, max_examples=120)
def test_eval_zeroshot_on_a_mutated_center_set_exits_0_or_2(
    tmp_path, tiny_bundle, tiny_center_set, capsys, mode, data
):
    # A `.cset` truncated, flipped or spliced anywhere, header line or blob,
    # ends in exit 0, or in exit 2 with the file named, never a traceback.
    path = tmp_path / "centers.cset"
    path.write_bytes(data.draw(mutated_bytes(tiny_center_set)))
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "eval", "zeroshot", "--centers", str(path),
        "--queries", str(tiny_bundle.visual["mod0"]), "--labels", str(tiny_bundle.labels),
        "--mode", mode, "--report", str(report),
    ])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"error: {path}: ")


@pytest.fixture(scope="module")
def adapter_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("adapter_bytes") / "valid.adapter"
    save_adapter(path, default_adapter(3, 4, seed=0, modality="image"))
    return path.read_bytes()


@given(data=st.data())
@settings(FUZZ, max_examples=200)
def test_mutated_adapter_file_loads_or_raises_naming_the_file(tmp_path, adapter_bytes, data):
    path = tmp_path / "fuzz.adapter"
    path.write_bytes(data.draw(mutated_bytes(adapter_bytes)))
    try:
        adapter = load_adapter(path)
    except (ValueError, ModalignError) as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert isinstance(adapter, LinearAdapter)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "load, text",
    [
        (load_train_config, DEEP),
        (load_pipeline_config, DEEP),
        (load_pairs_file, DEEP + "\n"),
        (load_center_set, DEEP + "\n"),
        (load_adapter, DEEP + "\n"),
    ],
    ids=["train-config", "pipeline-config", "pairs", "cset", "adapter"],
)
def test_nesting_too_deep_rejected_as_invalid_json(tmp_path, load, text):
    path = tmp_path / "deep"
    path.write_text(text)
    with pytest.raises((ModalignError, ValueError), match="nested too deeply|recursion"):
        load(path)
