"""The model directory's definition file: written resolved as JSON, loaded
with no defaults pass, and checked as it is when loaded.

Six small models cover every built-in encoder, decoder and the combiner: the
sequence column ``words`` is typed sequence or text and encoded by embed,
rnn or cnn, and a tagger reads it.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecdkit.config
import ecdkit.pipelines
from ecdkit.artifacts import DEFINITION_FILE, save_artifact
from ecdkit.config import parse_model_definition, resolve_defaults, validate
from ecdkit.data import load_dataset
from ecdkit.errors import ArtifactError
from ecdkit.graph import ECDModel
from ecdkit.pipelines import collect_metadata, load_model, predict
from ecdkit.registry import build_default_registries

import synth

REGS = build_default_registries()

HEADER = ["num", "flag", "vec", "color", "members", "words",
          "label", "ok", "score", "picks", "tags"]
ROWS = [
    ["0.5", "true", "0.1 0.2 0.3", "red", "a b", "p q r", "hi", "false", "1.5", "u v", "A B A"],
    ["-1.25", "false", "1 0 -1", "green", "b", "q p", "lo", "true", "0.25", "v", "B A"],
    ["3", "true", "0.5 0.5 0.5", "blue", "c a", "r r q p", "hi", "true", "-2", "", "A A B B"],
    ["2.5", "true", "2 1 0", "red", "", "p", "mid", "false", "0.75", "u w", "B"],
    ["0", "false", "0 0 0", "green", "a b c", "q r", "lo", "true", "3", "w", "A B"],
    ["1", "false", "-1 2 1", "red", "c", "p p q", "hi", "false", "1", "u v w", "B B A"],
]

SEQUENCE_ENCODERS = {
    "embed": "    embedding_size: 6\n",
    "rnn": "    embedding_size: 4\n    state_size: 5\n",
    "cnn": "    embedding_size: 3\n    num_filters: 2\n    filter_widths: [1, 3]\n",
}
VARIANTS = [(ftype, encoder) for ftype in ("sequence", "text") for encoder in SEQUENCE_ENCODERS]


def definition_text(ftype: str, encoder: str) -> str:
    return (
        "input_features:\n"
        "  - name: num\n    type: numerical\n    fc_sizes: [3]\n"
        "  - name: flag\n    type: binary\n"
        "  - name: vec\n    type: vector\n    encoder: dense\n    fc_sizes: [4]\n"
        "  - name: color\n    type: category\n    embedding_size: 5\n"
        "  - name: members\n    type: set\n    embedding_size: 4\n"
        f"  - name: words\n    type: {ftype}\n    encoder: {encoder}\n"
        + SEQUENCE_ENCODERS[encoder]
        + "combiner:\n  fc_sizes: [8]\n"
        "output_features:\n"
        "  - name: label\n    type: category\n    fc_sizes: [4]\n"
        "  - name: ok\n    type: binary\n    dependencies: [label]\n"
        "  - name: score\n    type: numerical\n"
        "    dependencies: [ok]\n    dependency_payload: last_hidden\n"
        "  - name: picks\n    type: set\n"
        "  - name: tags\n    type: sequence\n    fc_sizes: [3]\n"
        "training:\n  batch_size: 4\n"
    )


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(model directory, resolved definition) per variant, and the dataset."""
    tmp = tmp_path_factory.mktemp("stored_definition")
    dataset_path = synth.write_rows(tmp / "data.csv", HEADER, ROWS)
    dataset = load_dataset(dataset_path)
    models = {}
    for ftype, encoder in VARIANTS:
        definition = resolve_defaults(parse_model_definition(definition_text(ftype, encoder)), REGS)
        assert validate(definition, HEADER, REGS) == []
        metadata = collect_metadata(dataset, definition)
        model = ECDModel(definition, metadata, REGS, seed=3)
        model_dir = save_artifact(tmp / f"{ftype}_{encoder}", metadata, definition, model.store)
        models[ftype, encoder] = (model_dir, definition)
    return models, dataset_path


@pytest.mark.parametrize("variant", VARIANTS, ids=["-".join(v) for v in VARIANTS])
def test_loaded_definition_is_saved_one_and_its_own_resolution(saved, variant):
    model_dir, definition = saved[0][variant]
    assert sorted(p.name for p in model_dir.iterdir()) == [
        "metadata.json", "model_definition.json", "weights.bin"]
    stored = json.loads((model_dir / DEFINITION_FILE).read_text(encoding="utf-8"))
    assert stored == definition.to_dict()
    _, loaded, _ = load_model(model_dir)
    assert loaded == definition
    assert resolve_defaults(loaded, REGS) == loaded


def test_a_model_split_by_a_column_loads(saved, tmp_path):
    model, definition, metadata = load_model(saved[0]["sequence", "embed"][0])
    definition.training.split, definition.training.split_column = None, "fold"
    save_artifact(tmp_path / "model", metadata, definition, model.store)
    assert load_model(tmp_path / "model")[1] == definition


def test_predict_never_resolves_defaults(saved, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("resolve_defaults called")

    monkeypatch.setattr(ecdkit.config, "resolve_defaults", refuse)
    monkeypatch.setattr(ecdkit.pipelines, "resolve_defaults", refuse)
    models, dataset_path = saved
    predictions, metrics = predict(models["text", "rnn"][0], dataset_path, tmp_path / "pred")
    assert len(predictions.read_text(encoding="utf-8").splitlines()) == 1 + len(ROWS)
    assert metrics is not None


@pytest.mark.parametrize("damage,expected", [
    (lambda doc: doc["output_features"][0].pop("loss_weight"),
     "output_features.label: loss_weight must be positive, got None"),
    (lambda doc: doc["output_features"][1].pop("decoder"),
     "output_features.ok: unknown decoder None"),
    (lambda doc: doc["training"].pop("batch_size"), "training.batch_size: missing value"),
    (lambda doc: doc.pop("combiner"), "combiner: unknown combiner None"),
    (lambda doc: doc["input_features"][5]["preprocessing"].pop("lowercase"),
     "input_features.words.preprocessing.lowercase: missing value"),
    (lambda doc: doc["input_features"][0].pop("activation"),
     "input_features.num.activation: missing value"),
], ids=["loss_weight", "decoder", "batch_size", "combiner", "lowercase", "activation"])
def test_a_hole_is_reported_not_filled(saved, tmp_path, damage, expected):
    model_dir = damaged_copy(saved[0]["text", "cnn"][0], tmp_path / "model", damage)
    with pytest.raises(ArtifactError) as err:
        load_model(model_dir)
    assert str(model_dir / DEFINITION_FILE) in str(err.value)
    assert expected in str(err.value)


def damaged_copy(model_dir, target, damage):
    shutil.copytree(model_dir, target)
    path = target / DEFINITION_FILE
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# any one damaged value either loads or is an ArtifactError
# ---------------------------------------------------------------------------

POOL = (7, -1, 0, 0.5, "x", None, [], [0], {"a": 1})


def node_paths(node, path=()):
    """The path of every value under ``node``: mapping keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(path + (key,))
        paths.extend(node_paths(value, path + (key,)))
    return paths


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def damaged_definitions(draw):
    """A variant and its stored definition with one key deleted or one leaf replaced."""
    variant = draw(st.sampled_from(VARIANTS))
    doc = resolve_defaults(parse_model_definition(definition_text(*variant)), REGS).to_dict()
    paths = node_paths(doc)
    deletable = [p for p in paths if isinstance(at(doc, p[:-1]), dict)]
    leaves = [p for p in paths if not isinstance(at(doc, p), (dict, list)) or not at(doc, p)]
    if draw(st.booleans()):
        path = draw(st.sampled_from(deletable))
        del at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(leaves))
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(POOL))
    return variant, doc


@pytest.fixture(scope="module")
def scratch_dirs(saved, tmp_path_factory):
    """A copy of each variant's model directory whose definition a test overwrites."""
    tmp = tmp_path_factory.mktemp("damaged")
    return {variant: shutil.copytree(model_dir, tmp / "_".join(variant))
            for variant, (model_dir, _) in saved[0].items()}


@settings(max_examples=300, deadline=None)
@given(case=damaged_definitions())
def test_a_damaged_definition_loads_or_is_an_artifact_error(scratch_dirs, case):
    variant, doc = case
    model_dir = scratch_dirs[variant]
    (model_dir / DEFINITION_FILE).write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_model(model_dir)
    except ArtifactError as exc:
        assert DEFINITION_FILE in str(exc) or "metadata" in str(exc) or "weights" in str(exc)
