"""Property tests: every parser of outside input either returns a valid
object or raises ModalignError/ValueError, whatever JSON it is handed."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modalign.centers import CenterSet, load_center_set, localize, save_center_set
from modalign.errors import ModalignError
from modalign.kb import KnowledgeRecord, Source, from_parts
from modalign.pipeline import load_pairs_file, load_pipeline_config
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


def mutated(header: dict):
    """`header` with one key, at the top or in one nested object, replaced by
    an arbitrary JSON value or deleted."""

    @st.composite
    def build(draw):
        out = json.loads(json.dumps(header))
        target = out
        entries = [e for v in out.values() if isinstance(v, list) for e in v if isinstance(e, dict)]
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
        assert pairs == [(str(line["sample_id"]), line["visual_row"]) for line in lines]
        assert len({s for s, _ in pairs}) == len({row for _, row in pairs}) == len(pairs)


@pytest.fixture(scope="module")
def center_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    records = [
        KnowledgeRecord(f"{c}_{i}", c, "text", Source.LLM_CATEGORY) for c in "ab" for i in range(4)
    ]
    kb = from_parts(records, rng.standard_normal((8, 5)))
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
