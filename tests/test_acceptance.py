"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria covered:
  1. Config conciseness of the committed fixture definitions.
  2. Encoder interchangeability: same config, encoder name swapped, all run.
  3. Gradient correctness: per-op and end-to-end finite-difference checks.
  4. Training convergence on three synthetic tasks (a, b, c), and (d) rnn
     accuracy that one long row's padding does not move.
  5. Multi-task output dependency helps, plus exhaustive DAG ordering.
  6. Pipeline invariants: determinism, cache transparency, save/load,
     no metadata leakage.
  7. Defaults resolution of the minimal definition.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ecdkit import features as ft
from ecdkit.cli import main as cli_main
from ecdkit.config import parse_model_definition, resolve_defaults, validate
from ecdkit.data import load_dataset
from ecdkit.definition import DecoderSpec
from ecdkit.errors import ConfigError
from ecdkit.graph import ECDModel, build_dependency_order
from ecdkit.pipelines import experiment, load_model, train
from ecdkit.registry import build_default_registries

import synth
from oracles import finite_difference_grad, max_relative_error, topological_orders_brute_force
from test_autodiff import GRAD_TOL, _op_cases, gradcheck
from test_graph import make_meta

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REGS = build_default_registries()


def report(criterion: str, passed: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"{criterion} failed {suffix}"


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


# ---------------------------------------------------------------------------
# criterion 1: config conciseness
# ---------------------------------------------------------------------------

def test_criterion_1_config_conciseness():
    started = time.monotonic()
    limits = {
        "text_classification_cnn.yaml": 8,
        "text_classification_rnn.yaml": 10,
        "sequence_tagger.yaml": 10,
    }
    counts = {}
    for name, limit in limits.items():
        path = CONFIG_DIR / name
        counts[name] = non_blank_lines(path)
        assert counts[name] <= limit, f"{name}: {counts[name]} lines > {limit}"
        # each fixture must be a working definition, not just short
        resolved = resolve_defaults(parse_model_definition(path.read_text()), REGS)
        assert resolved.combiner.name == "concat"
    elapsed = time.monotonic() - started
    report("criterion 1 config conciseness", elapsed < 1.0,
           f"lines {counts}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: encoder interchangeability
# ---------------------------------------------------------------------------

def test_criterion_2_encoder_interchangeability(tmp_path):
    started = time.monotonic()
    dataset = synth.keyword_text(tmp_path / "text.csv", n=200, seed=4)
    template = (
        "input_features:\n"
        "  - name: text\n"
        "    type: text\n"
        "    encoder: {encoder}\n"
        "output_features:\n"
        "  - name: label\n"
        "    type: category\n"
        "training:\n"
        "  epochs: 3\n"
        "  batch_size: 32\n"
    )
    encoders = REGS.encoders.names("text")
    assert set(encoders) == {"cnn", "embed", "rnn"}
    codes = {}
    for encoder in encoders:
        config = tmp_path / f"model_{encoder}.yaml"
        config.write_text(template.format(encoder=encoder), encoding="utf-8")
        codes[encoder] = cli_main(["experiment", "-c", str(config), "-d", str(dataset),
                                   "-o", str(tmp_path / f"run_{encoder}"), "--seed", "3", "-q"])
    elapsed = time.monotonic() - started
    report("criterion 2 encoder interchangeability",
           all(code == 0 for code in codes.values()) and elapsed < 120.0,
           f"exit codes {codes}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness
# ---------------------------------------------------------------------------

MULTITASK_CONFIG = (
    "input_features:\n"
    "  - name: x1\n    type: numerical\n"
    "  - name: x2\n    type: numerical\n"
    "combiner:\n"
    "  fc_sizes: [8]\n"
    "output_features:\n"
    "  - name: a\n    type: category\n"
    "  - name: b\n    type: numerical\n"
    "    dependencies: [a]\n"
)


def multitask_model(seed=13):
    meta = make_meta(x1=("numerical", ["0.5", "1.0", "-1.0"]),
                     x2=("numerical", ["0.2", "-0.3", "0.9"]),
                     a=("category", ["p", "q", "r"]),
                     b=("numerical", ["0.1", "0.2", "0.3"]))
    definition = resolve_defaults(parse_model_definition(MULTITASK_CONFIG), REGS)
    return ECDModel(definition, meta, REGS, seed, dtype=np.float64)  # gradchecked


def test_criterion_3_gradient_correctness():
    started = time.monotonic()
    # (a) every differentiable operation against central differences
    probes = 0
    worst_op = 0.0
    for trial in range(4):
        cases = _op_cases(np.random.default_rng(2000 + trial))
        for name, (shape, build) in cases.items():
            values = np.random.default_rng(300 + trial).normal(size=shape)
            if name == "reduce_max":
                values += np.arange(values.size).reshape(shape) * 0.01
            if name == "relu":
                values += 0.05 * np.sign(values)
            worst_op = max(worst_op, gradcheck(build, values))
            probes += values.size

    # (b) end-to-end combined loss of the multi-task model with a
    #     category-probability dependency route
    model = multitask_model()
    rng = np.random.default_rng(17)
    worst_e2e = 0.0
    e2e_probes = 0
    for _ in range(2):
        batch = {"x1": rng.normal(size=(6, 1)), "x2": rng.normal(size=(6, 1))}
        targets = {"a": rng.integers(0, 4, size=(6, 1)).astype(float),
                   "b": rng.normal(size=(6, 1))}
        result = model.forward(batch, targets)
        grads = model.backward(result)
        for name in model.store.names():
            param = model.store[name]
            original = param.value.copy()

            def loss_at(flat):
                param.value = flat.reshape(original.shape)
                return model.forward(batch, targets).combined_loss

            numeric = finite_difference_grad(loss_at, original.reshape(-1).copy())
            param.value = original
            worst_e2e = max(worst_e2e,
                            max_relative_error(grads[name].reshape(-1), numeric))
            e2e_probes += original.size
    elapsed = time.monotonic() - started
    report("criterion 3 gradient correctness",
           worst_op < GRAD_TOL and worst_e2e < 1e-4 and probes >= 100
           and e2e_probes >= 100 and elapsed < 60.0,
           f"op err {worst_op:.2e} over {probes} probes, "
           f"end-to-end err {worst_e2e:.2e} over {e2e_probes} probes, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: training convergence
# ---------------------------------------------------------------------------

def test_criterion_4a_linear_separable_binary(tmp_path):
    started = time.monotonic()
    dataset = synth.linear_binary(tmp_path / "linear.csv", n=500, seed=11)
    # independent separability check before expecting the model to fit
    ds = load_dataset(dataset)
    xs = np.array([[float(cell) for cell in ds.column(f"f{i}")] for i in range(4)]).T
    ys = np.array([1.0 if label == "true" else 0.0 for label in ds.column("label")])
    oracle_acc = synth.logistic_regression_accuracy(xs, ys)
    assert oracle_acc >= 0.95, f"oracle says data is not separable: {oracle_acc}"

    config = (
        "input_features:\n"
        "  - name: f0\n    type: numerical\n"
        "  - name: f1\n    type: numerical\n"
        "  - name: f2\n    type: numerical\n"
        "  - name: f3\n    type: numerical\n"
        "output_features:\n"
        "  - name: label\n    type: binary\n"
        "training:\n"
        "  epochs: 50\n"
        "  batch_size: 32\n"
        "  learning_rate: 0.05\n"
        "  patience: 0\n"
    )
    definition = parse_model_definition(config)
    _, stats = train(definition, dataset, tmp_path / "run", seed=1)
    best_train_acc = max(e["train_metrics"]["label"]["accuracy"] for e in stats.epochs)
    elapsed = time.monotonic() - started
    report("criterion 4a linear separable convergence",
           best_train_acc >= 0.95 and len(stats.epochs) <= 50 and elapsed < 120.0,
           f"train accuracy {best_train_acc:.3f} in {len(stats.epochs)} epochs, "
           f"oracle {oracle_acc:.3f}, {elapsed:.1f}s")


def test_criterion_4b_keyword_text_cnn(tmp_path):
    started = time.monotonic()
    dataset = synth.keyword_text(tmp_path / "kw.csv", n=1000, seed=21)
    config = (
        "input_features:\n"
        "  - name: text\n    type: text\n    encoder: cnn\n"
        "output_features:\n"
        "  - name: label\n    type: category\n"
        "training:\n"
        "  epochs: 10\n"
        "  batch_size: 32\n"
        "  learning_rate: 0.005\n"
        "  validation_metric: accuracy\n"
        "  patience: 0\n"
    )
    definition = parse_model_definition(config)
    _, stats = train(definition, dataset, tmp_path / "run", seed=2)
    best_val_acc = max(e["validation_metrics"]["label"]["accuracy"] for e in stats.epochs)
    elapsed = time.monotonic() - started
    report("criterion 4b keyword text classification (cnn)",
           best_val_acc >= 0.90 and elapsed < 120.0,
           f"validation accuracy {best_val_acc:.3f}, {elapsed:.1f}s")


def test_criterion_4c_deterministic_tagging(tmp_path):
    started = time.monotonic()
    dataset = synth.token_tagging(tmp_path / "tags.csv", n=300, seed=31)
    config = (
        "input_features:\n"
        "  - name: tokens\n    type: sequence\n"
        "output_features:\n"
        "  - name: tags\n    type: sequence\n"
        "training:\n"
        "  epochs: 25\n"
        "  batch_size: 32\n"
        "  learning_rate: 0.05\n"
        "  patience: 0\n"
    )
    definition = parse_model_definition(config)
    _, _, metrics = experiment(definition, dataset, tmp_path / "run", seed=3)
    token_acc = metrics["test"]["tags"]["token_accuracy"]
    elapsed = time.monotonic() - started
    report("criterion 4c deterministic tagging",
           token_acc >= 0.95 and elapsed < 120.0,
           f"test token accuracy {token_acc:.3f}, {elapsed:.1f}s")


def test_criterion_4d_padding_does_not_move_rnn_accuracy(tmp_path):
    """The rnn, the cnn and the embed encoder score the same at widths 8 and
    120: one 120-token row in the training data must not move what the other
    rows predict."""
    short = synth.keyword_text(tmp_path / "kw.csv", n=1000, seed=0)
    long = tmp_path / "kw_long.csv"
    long.write_text(short.read_text(encoding="utf-8") + " ".join(["alpha"] * 120) + ",miss\n",
                    encoding="utf-8")
    for encoder in ("rnn", "cnn", "embed"):
        started = time.monotonic()
        config = (
            "input_features:\n"
            f"  - name: text\n    type: text\n    encoder: {encoder}\n"
            "output_features:\n"
            "  - name: label\n    type: category\n"
            "training:\n"
            "  epochs: 15\n"
            "  batch_size: 32\n"
            "  learning_rate: 0.005\n"
        )
        accuracy, widths = [], []
        for path in (short, long):
            out = tmp_path / f"{encoder}-{path.stem}"
            _, _, metrics = experiment(parse_model_definition(config), path, out, seed=42)
            accuracy.append(metrics["test"]["label"]["accuracy"])
            widths.append(load_model(out / "model")[2]["text"].max_sequence_length)
        elapsed = time.monotonic() - started
        report(f"criterion 4d {encoder} accuracy independent of padding",
               widths == [8, 120] and abs(accuracy[0] - accuracy[1]) <= 0.02 and elapsed < 120.0,
               f"test accuracy {accuracy[0]:.3f} at width {widths[0]}, "
               f"{accuracy[1]:.3f} at width {widths[1]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: multi-task dependency and DAG ordering
# ---------------------------------------------------------------------------

DEP_CONFIG = (
    "input_features:\n"
    "  - name: x1\n    type: numerical\n"
    "  - name: x2\n    type: numerical\n"
    "output_features:\n"
    "  - name: quadrant\n    type: category\n"
    "  - name: same_sign\n    type: binary\n"
    "{dependency}"
    "training:\n"
    "  epochs: 25\n"
    "  batch_size: 32\n"
    "  learning_rate: 0.02\n"
    "  patience: 0\n"
)


def test_criterion_5_dependency_improves_derived_output(tmp_path):
    dataset = synth.quadrant_xor(tmp_path / "quad.csv", n=600, seed=41)
    with_dep = parse_model_definition(DEP_CONFIG.format(
        dependency="    dependencies: [quadrant]\n"))
    without_dep = parse_model_definition(DEP_CONFIG.format(dependency=""))
    dep_scores, nodep_scores = [], []
    for seed in range(5):
        _, _, m_dep = experiment(with_dep, dataset, tmp_path / f"dep{seed}", seed=seed)
        _, _, m_nodep = experiment(without_dep, dataset, tmp_path / f"nodep{seed}", seed=seed)
        dep_scores.append(m_dep["test"]["same_sign"]["accuracy"])
        nodep_scores.append(m_nodep["test"]["same_sign"]["accuracy"])
    mean_dep = float(np.mean(dep_scores))
    mean_nodep = float(np.mean(nodep_scores))
    report("criterion 5 dependency benefit (paired over 5 seeds)",
           mean_dep >= mean_nodep,
           f"with dependency {mean_dep:.3f} vs without {mean_nodep:.3f}")


def test_criterion_5_dag_ordering_exhaustive():
    """Every digraph on <= 4 nodes, against the brute-force order oracle."""
    checked = 0
    for n in range(1, 5):
        names = [f"n{i}" for i in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(2 ** len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            specs = [DecoderSpec(name=names[v], type="numerical",
                                 dependencies=[names[u] for u, w in edges if w == v])
                     for v in range(n)]
            valid = topological_orders_brute_force(n, edges)
            if not valid:
                with pytest.raises(ConfigError):
                    build_dependency_order(specs)
            else:
                order = build_dependency_order(specs)
                assert sorted(order) == sorted(names)
                positions = {name: i for i, name in enumerate(order)}
                assert all(positions[names[u]] < positions[names[v]] for u, v in edges)
            checked += 1
    report("criterion 5 DAG ordering exhaustive", checked == 1 + 4 + 64 + 4096,
           f"{checked} digraphs checked against brute force")


# ---------------------------------------------------------------------------
# criterion 6: pipeline invariants
# ---------------------------------------------------------------------------

PIPELINE_CONFIG = (
    "input_features:\n"
    "  - name: text\n    type: text\n"
    "output_features:\n"
    "  - name: label\n    type: category\n"
    "training:\n"
    "  epochs: 4\n"
    "  batch_size: 32\n"
)


def test_criterion_6a_determinism(tmp_path):
    started = time.monotonic()
    dataset = synth.keyword_text(tmp_path / "d.csv", n=150, seed=51)
    payloads = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        experiment(parse_model_definition(PIPELINE_CONFIG), dataset, out, seed=9)
        payloads.append(((out / "metrics.json").read_bytes(),
                         (out / "model" / "weights.bin").read_bytes()))
    elapsed = time.monotonic() - started
    report("criterion 6a determinism", payloads[0] == payloads[1] and elapsed < 60.0,
           f"metrics.json and weights.bin byte-identical, {elapsed:.1f}s")


def test_criterion_6b_cache_transparency(tmp_path):
    started = time.monotonic()
    dataset = synth.keyword_text(tmp_path / "d.csv", n=150, seed=52)
    cold = tmp_path / "cold"
    warm = tmp_path / "warm"
    experiment(parse_model_definition(PIPELINE_CONFIG), dataset, cold, seed=9)
    assert (Path(str(dataset) + ".ecdc")).exists()
    experiment(parse_model_definition(PIPELINE_CONFIG), dataset, warm, seed=9)
    identical = (cold / "metrics.json").read_bytes() == (warm / "metrics.json").read_bytes()
    elapsed = time.monotonic() - started
    report("criterion 6b cache transparency", identical and elapsed < 60.0,
           f"cold vs warm metrics identical, {elapsed:.1f}s")


def test_criterion_6c_save_load_round_trip(tmp_path):
    started = time.monotonic()
    dataset = synth.keyword_text(tmp_path / "d.csv", n=150, seed=53)
    model_dir, _ = train(parse_model_definition(PIPELINE_CONFIG), dataset,
                         tmp_path / "run", seed=9)
    model, definition, metadata = load_model(model_dir)
    batch = {"text": np.tile(np.arange(metadata["text"].max_sequence_length, dtype=float),
                             (7, 1)) % metadata["text"].vocab_size}
    before = model.forward(batch).predictions["label"]
    reloaded, _, _ = load_model(model_dir)
    after = reloaded.forward(batch).predictions["label"]
    identical = np.array_equal(before, after)
    elapsed = time.monotonic() - started
    report("criterion 6c save/load round trip", identical and elapsed < 60.0,
           f"forward outputs bit-identical, {elapsed:.1f}s")


def test_criterion_6d_no_leakage(tmp_path):
    started = time.monotonic()
    rows = []
    for i in range(60):
        fold = "train" if i < 40 else ("validation" if i < 50 else "test")
        rows.append([f"w{i % 9} w{i % 5} w{i % 3}", "x" if i % 2 else "y", fold])
    base = synth.write_rows(tmp_path / "base.csv", ["text", "label", "fold"], rows)
    mutated_rows = [list(r) for r in rows]
    for i in range(50, 60):  # perturb every test-split cell
        mutated_rows[i][0] = f"unseen{i} words entirely"
        mutated_rows[i][1] = "y"
    mutated = synth.write_rows(tmp_path / "mutated.csv", ["text", "label", "fold"],
                               mutated_rows)
    config = parse_model_definition(PIPELINE_CONFIG + "  split_column: fold\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    train(config, base, out_a, seed=9)
    train(config, mutated, out_b, seed=9)
    identical = all((out_a / "model" / name).read_bytes() == (out_b / "model" / name).read_bytes()
                    for name in ("metadata.json", "weights.bin"))
    elapsed = time.monotonic() - started
    report("criterion 6d no leakage", identical and elapsed < 60.0,
           f"metadata.json and weights.bin byte-identical after test-split perturbation, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: defaults resolution
# ---------------------------------------------------------------------------

def test_criterion_7_defaults_resolution():
    minimal = (
        "input_features:\n"
        "  - name: text\n    type: text\n"
        "output_features:\n"
        "  - name: label\n    type: category\n"
    )
    resolved = resolve_defaults(parse_model_definition(minimal), REGS)
    checks = {
        "combiner is concat": resolved.combiner.name == "concat",
        "type-default encoder": resolved.input_features[0].encoder == "embed",
        "type-default decoder": resolved.output_features[0].decoder == "classifier",
        "idempotent": resolve_defaults(resolved, REGS) == resolved,
        "validates cleanly": validate(resolved, ["text", "label"], REGS) == [],
    }

    override = (
        "input_features:\n"
        "  - name: a\n    type: text\n"
        "    preprocessing:\n"
        "      max_sequence_length: 20\n"
        "  - name: b\n    type: text\n"
        "output_features:\n"
        "  - name: label\n    type: category\n"
        "preprocessing:\n"
        "  text:\n"
        "    max_sequence_length: 100\n"
    )
    resolved_override = resolve_defaults(parse_model_definition(override), REGS)
    checks["feature-level override wins"] = \
        resolved_override.input_features[0].preprocessing["max_sequence_length"] == 20
    checks["type-level applies elsewhere"] = \
        resolved_override.input_features[1].preprocessing["max_sequence_length"] == 100
    report("criterion 7 defaults resolution", all(checks.values()),
           ", ".join(k for k, v in checks.items() if not v) or "all checks hold")
