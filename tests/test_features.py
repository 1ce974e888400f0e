"""Type-specific preprocessing, metadata, post-processing, and metrics."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecdkit import features as ft
from ecdkit.decoders import real_positions
from ecdkit.errors import ContractError, DataError, MetadataError, RegistryError, ShapeError

import oracles


def params(**overrides):
    return ft.PreprocParams(**overrides)


class TestTokenize:

    def test_space_splits_on_whitespace_runs(self):
        assert ft.tokenizer("space")("a b") == ["a", "b"]
        assert ft.tokenizer("space")("a   b\tc") == ["a", "b", "c"]

    def test_empty_input(self):
        assert ft.tokenizer("space")("") == []

    def test_character_strategy(self):
        assert ft.tokenizer("character")("abc") == ["a", "b", "c"]

    def test_unknown_strategy(self):
        with pytest.raises(RegistryError, match="space, character"):
            ft.tokenizer("bpe")

    @given(st.text())
    def test_character_strategy_preserves_content(self, text):
        assert "".join(ft.tokenizer("character")(text)) == text


class TestBuildMetadata:

    def test_category_vocabulary_matches_counting_oracle(self):
        column = ["a", "b", "a"]
        counts = Counter(column)
        expected = [ft.UNK] + [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        meta = ft.build_metadata(column, "category", params())
        assert meta.id2token == expected == ["<UNK>", "a", "b"]
        assert meta.token2id == {"<UNK>": 0, "a": 1, "b": 2}

    def test_numerical_population_statistics(self):
        meta = ft.build_metadata(["1", "2", "3"], "numerical", params())
        assert meta.mean == 2.0
        assert abs(meta.std - math.sqrt(2.0 / 3.0)) < 1e-15

    def test_binary_metadata_has_no_vocabulary(self):
        meta = ft.build_metadata(["true", "false", "1"], "binary", params())
        assert isinstance(meta, ft.BinaryMetadata)
        assert (meta.true_form, meta.false_form) == ("true", "false")

    def test_frequency_ordering_with_lexicographic_ties(self):
        meta = ft.build_metadata(["b", "a", "c", "b", "a"], "category", params())
        assert meta.id2token == ["<UNK>", "a", "b", "c"]

    def test_vocab_cap_truncates(self):
        column = [f"tok{i}" for i in range(20)]
        meta = ft.build_metadata(column, "category", params(vocab_size=5))
        assert len(meta.id2token) == 6  # reserved <UNK> + cap

    def test_sequence_reserves_pad_and_unk(self):
        meta = ft.build_metadata(["a b", "b"], "sequence", params())
        assert meta.id2token[:2] == ["<PAD>", "<UNK>"]
        assert meta.max_sequence_length == 2

    def test_max_sequence_length_is_capped(self):
        meta = ft.build_metadata(["a b c d e"], "sequence", params(max_sequence_length=3))
        assert meta.max_sequence_length == 3

    def test_all_missing_column_is_metadata_error(self):
        with pytest.raises(MetadataError):
            ft.build_metadata(["", "", ""], "category", params())

    def test_constant_numerical_column_keeps_unit_std(self):
        meta = ft.build_metadata(["5", "5"], "numerical", params())
        assert meta.std == 1.0

    @given(st.lists(st.sampled_from(["a", "b", "c", "dd", "e"]), min_size=1, max_size=40))
    def test_vocabulary_ids_are_dense(self, column):
        meta = ft.build_metadata(column, "category", params())
        assert sorted(meta.token2id.values()) == list(range(len(meta.id2token)))
        assert all(meta.token2id[tok] == i for i, tok in enumerate(meta.id2token))


def one_cell(raw, ftype, meta, p=None):
    """The one row ``preprocess_column`` gives a one-cell column."""
    out = ft.preprocess_column([raw], [2], ftype, meta, p or params())
    assert out.shape[0] == 1
    return out[0]


def normalized_cell(raw, meta, p=None):
    """A one-cell numerical column's row as the model reads it, normalized."""
    return meta.normalize(one_cell(raw, "numerical", meta, p))


class TestPreprocessColumn:

    def test_binary_true_forms(self):
        meta = ft.BinaryMetadata()
        for raw in ("true", "1", "T", "YES"):
            assert one_cell(raw, "binary", meta)[0] == 1.0
        for raw in ("false", "0", "f", "no"):
            assert one_cell(raw, "binary", meta)[0] == 0.0

    def test_binary_unrecognized_form_is_error(self):
        with pytest.raises(DataError, match="maybe"):
            one_cell("maybe", "binary", ft.BinaryMetadata())

    def test_category_out_of_vocabulary_maps_to_unk(self):
        meta = ft.build_metadata(["a", "b"], "category", params())
        out = one_cell("zebra", "category", meta)
        assert out[0] == meta.token2id[ft.UNK]

    def test_text_mapping_and_padding(self):
        meta = ft.VocabMetadata(type="text", id2token=["<PAD>", "<UNK>", "a", "b"],
                                max_sequence_length=4)
        out = one_cell("a b", "text", meta, params(lowercase=True))
        np.testing.assert_array_equal(out, [2.0, 3.0, 0.0, 0.0])

    def test_text_truncation_at_max_length(self):
        meta = ft.build_metadata(["a b c d e f"], "text", params(max_sequence_length=3))
        out = one_cell("a b c d e f", "text", meta, params(max_sequence_length=3))
        assert out.shape == (3,)

    def test_set_multi_hot(self):
        meta = ft.build_metadata(["x y", "y"], "set", params())
        out = one_cell("y q", "set", meta)
        assert out.shape == (meta.vocab_size,)
        assert out[meta.token2id["y"]] == 1.0
        assert out[meta.token2id[ft.UNK]] == 1.0  # q is unknown

    @given(st.lists(st.sampled_from(["a b", "b b c", "c", "dd a"]), min_size=1, max_size=8),
           st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "zz", "<UNK>"]), max_size=6),
                    min_size=1, max_size=12))
    def test_set_multi_hot_matches_the_per_row_oracle(self, train, token_rows):
        # cells may be empty and hold repeated and unknown ("zz") tokens
        meta = ft.build_metadata(train, "set", params())
        cells = [" ".join(row) for row in token_rows]
        out = ft.preprocess_column(cells, range(2, len(cells) + 2), "set", meta, params())
        expected = oracles.set_multi_hot_rows(token_rows, meta.id2token)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_numerical_zscore(self):
        meta = ft.build_metadata(["1", "2", "3"], "numerical", params())
        assert one_cell("2", "numerical", meta)[0] == 2.0  # the array stays raw
        assert abs(normalized_cell("2", meta)[0]) < 1e-12

    def test_numerical_unparseable_is_error(self):
        meta = ft.build_metadata(["1"], "numerical", params())
        with pytest.raises(DataError, match="abc"):
            one_cell("abc", "numerical", meta)

    def test_vector_fixed_length(self):
        meta = ft.build_metadata(["1 2 3"], "vector", params())
        out = one_cell("4 5 6", "vector", meta)
        np.testing.assert_array_equal(out, [4.0, 5.0, 6.0])
        with pytest.raises(DataError):
            one_cell("1 2", "vector", meta)

    def test_missing_values_fill_defaults(self):
        num_meta = ft.build_metadata(["2", "4"], "numerical", params())
        assert one_cell("", "numerical", num_meta)[0] == 0.0
        assert normalized_cell("", num_meta)[0] == num_meta.normalize(0.0)
        mean_filled = normalized_cell("", num_meta, params(missing_strategy="fill_mean"))
        assert abs(mean_filled[0]) < 1e-12
        cat_meta = ft.build_metadata(["a"], "category", params())
        assert one_cell("", "category", cat_meta)[0] == 0.0

    @given(st.text(alphabet="abc xyz", max_size=30))
    @settings(max_examples=60)
    def test_purity_and_exact_padding_invariant(self, raw):
        meta = ft.build_metadata(["a b c d e", "x y z"], "sequence", params(max_sequence_length=5))
        p = params(max_sequence_length=5)
        first = one_cell(raw, "sequence", meta, p)
        second = one_cell(raw, "sequence", meta, p)
        np.testing.assert_array_equal(first, second)
        max_len = meta.max_sequence_length
        assert first.shape == (max_len,)
        n_content = min(len(raw.split()), max_len)
        assert all(first[i] != 0 for i in range(n_content))
        assert all(first[i] == 0 for i in range(n_content, max_len))

    def test_bad_cell_names_its_line(self):
        meta = ft.build_metadata(["1 2 3"], "vector", params())
        with pytest.raises(DataError, match=r"^row 9: non-finite vector value '1 2 nan'$"):
            ft.preprocess_column(["4 5 6", "1 2 nan"], [4, 9], "vector", meta, params())
        with pytest.raises(DataError, match=r"^row 4: vector length 2 != expected 3$"):
            ft.preprocess_column(["4 5", "1 2 3"], [4, 9], "vector", meta, params())

    def test_constant_minmax_column_maps_to_positive_zero(self):
        meta = ft.build_metadata(["5", "5"], "numerical", params(normalization="minmax"))
        out = ft.preprocess_column(["-3", "5", "8"], [2, 3, 4], "numerical", meta, params())
        assert out.tolist() == [[-3.0], [5.0], [8.0]]
        normalized = meta.normalize(out)
        assert normalized.tolist() == [[0.0], [0.0], [0.0]]
        assert not np.signbit(normalized).any()

    @given(data=st.data(), ftype=st.sampled_from(ft.SUPPORTED_TYPES),
           n=st.integers(0, 12), lowercase=st.booleans())
    @settings(max_examples=150)
    def test_column_is_the_rows_of_its_one_cell_calls(self, data, ftype, n, lowercase):
        training, cells = PROPERTY_COLUMNS[ftype]
        fill = data.draw(st.sampled_from(FILLS[ftype]))
        normalization = data.draw(st.sampled_from(ft.NORMALIZATIONS))
        p = params(missing_strategy=fill, normalization=normalization, lowercase=lowercase,
                   max_sequence_length=3)
        meta = ft.build_metadata(training, ftype, p)
        column = data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))
        lines = list(range(2, n + 2))
        out = ft.preprocess_column(column, lines, ftype, meta, p)
        rows = [ft.preprocess_column([cell], [line], ftype, meta, p)
                for line, cell in zip(lines, column)]
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == (n, expected_width(ftype, meta))
        assert out.tobytes() == b"".join(row.tobytes() for row in rows)
        if ftype == "numerical":
            raw = oracles.numerical_values(column, fill, meta.mean)
            assert out[:, 0].tolist() == raw
            assert meta.normalize(out).tobytes() == b"".join(
                meta.normalize(row).tobytes() for row in rows)

    @given(data=st.data(), ftype=st.sampled_from(["category", "sequence", "text"]),
           tokenizer=st.sampled_from(ft.TOKENIZERS), lowercase=st.booleans(),
           max_len=st.integers(1, 4), vocab_size=st.integers(1, 6))
    @settings(max_examples=150)
    def test_ids_are_the_per_token_lookup_oracle(self, data, ftype, tokenizer, lowercase,
                                                 max_len, vocab_size):
        # unknown tokens, the reserved tokens as literal cells, empty (missing)
        # cells, rows past max_len and an empty column all take the one id pass
        words = st.sampled_from(["a", "b", "B", "zz", "<UNK>", "<PAD>"])
        cell = (words | st.just("") if ftype == "category"
                else st.lists(words, max_size=6).map(" ".join))
        p = params(tokenizer=tokenizer, lowercase=lowercase, max_sequence_length=max_len,
                   vocab_size=vocab_size)
        meta = ft.build_metadata(data.draw(st.lists(cell, max_size=6)) + ["a b"], ftype, p)
        column = data.draw(st.lists(cell, max_size=8), label="column")
        out = ft.preprocess_column(column, list(range(2, len(column) + 2)), ftype, meta, p)
        expected = oracles.vocab_id_rows(column, ftype, meta.id2token, meta.max_sequence_length,
                                         tokenizer, lowercase)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


#: per type: a training column, and the cells a column under test draws from ("" is missing)
PROPERTY_COLUMNS = {
    "binary": (["true", "false"], ["true", "0", "YES", "f", ""]),
    "numerical": (["1.5", "-2", "4"], ["0", "2.25", "-7", "1e3", ""]),
    "category": (["a", "b", "a", "B"], ["a", "b", "zz", "B", ""]),
    "set": (["a b", "c", "C"], ["a", "a c", "zz a", "C", "b b", ""]),
    "sequence": (["a b c", "b", "B"], ["a", "b a c d", "zz", "B a", "a a a a a a", ""]),
    "text": (["The cat", "a dog sat"], ["the", "A DOG", "x y z w", "cat cat", ""]),
    "vector": (["1 2 3"], ["0 0 0", "1.5 -2 3", "1e3 2 3", ""]),
}
FILLS = {ftype: ("fill_const", "fill_mean") if ftype == "numerical" else ("fill_const",)
         for ftype in ft.SUPPORTED_TYPES}


def expected_width(ftype, meta):
    if ftype == "set":
        return meta.vocab_size
    if ftype in ("sequence", "text"):
        return meta.max_sequence_length
    if ftype == "vector":
        return meta.length
    return 1


class TestParsers:

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e400", "-1e400"])
    def test_non_finite_number_is_data_error_quoting_the_cell(self, raw):
        with pytest.raises(DataError, match=f"non-finite numerical value {raw!r}"):
            ft.parse_float(raw)

    @pytest.mark.parametrize("raw", ["0.3 nan", "inf 1", "0 -inf", "1e400 2"])
    def test_non_finite_vector_is_data_error_quoting_the_cell(self, raw):
        with pytest.raises(DataError, match=f"non-finite vector value {raw!r}"):
            ft.parse_vector(raw)

    def test_finite_extremes_still_parse(self):
        assert ft.parse_float("1e308") == 1e308
        assert ft.parse_float("-5e-324") == -5e-324
        assert ft.parse_vector("1e308 -0.0") == [1e308, 0.0]


#: per type: cells a column under test draws from, good and bad ("" is missing)
PARSER_CELLS = {
    "numerical": ["1", "-2.5", "1e3", "1e30", "-5e-324", "-0.0", " 2 ", "1_000", "",
                  "nan", "NaN", "inf", "-inf", "1e400", "abc", "1__0", "0x10"],
    "binary": ["true", "0", "YES", " f ", "No", "T\t", "", "maybe", "2", "truee"],
}


class TestColumnParsers:
    """Numerical and binary columns parse a column at a time; each value and
    each diagnostic is that of the cells parsed one at a time."""

    @staticmethod
    def expect(column, lines, ftype, fill):
        """The per-cell oracle over the cells as preprocessing reads them."""
        return oracles.parse_cells_one_at_a_time([cell or fill for cell in column], lines, ftype)

    @given(data=st.data(), ftype=st.sampled_from(sorted(PARSER_CELLS)), n=st.integers(1, 10))
    @settings(max_examples=200)
    def test_preprocessed_column_is_the_per_cell_path(self, data, ftype, n):
        column = data.draw(st.lists(st.sampled_from(PARSER_CELLS[ftype]), min_size=n, max_size=n))
        lines = sorted(data.draw(st.sets(st.integers(2, 500), min_size=n, max_size=n)))
        meta = ft.build_metadata(["1", "4"] if ftype == "numerical" else ["true"], ftype, params())
        values, message = self.expect(column, lines, ftype, "0" if ftype == "numerical" else "false")
        if message is None:
            out = ft.preprocess_column(column, lines, ftype, meta, params())
            assert out[:, 0].tolist() == values
            assert out.tobytes() == np.array(values).tobytes()  # -0.0 keeps its sign
        else:
            with pytest.raises(DataError) as caught:
                ft.preprocess_column(column, lines, ftype, meta, params())
            assert str(caught.value) == message

    @given(data=st.data(), ftype=st.sampled_from(sorted(PARSER_CELLS)), n=st.integers(1, 10))
    @settings(max_examples=200)
    def test_metadata_column_is_the_per_cell_path(self, data, ftype, n):
        column = data.draw(st.lists(st.sampled_from(PARSER_CELLS[ftype]), min_size=n, max_size=n))
        lines = list(range(3, 3 + 2 * n, 2))
        present = [(line, cell) for line, cell in zip(lines, column) if cell]
        values, message = oracles.parse_cells_one_at_a_time(
            [cell for _, cell in present], [line for line, _ in present], ftype)
        if message is not None:
            with pytest.raises(DataError) as caught:
                ft.build_metadata(column, ftype, params(), lines)
            assert str(caught.value) == message
        elif ftype == "numerical" and values:
            meta = ft.build_metadata(column, ftype, params(), lines)
            assert (meta.min, meta.max) == (min(values), max(values))

    @pytest.mark.parametrize("cell, message", [
        ("nan", "non-finite numerical value 'nan'"),
        ("inf", "non-finite numerical value 'inf'"),
        ("1e400", "non-finite numerical value '1e400'"),
        ("abc", "unparseable numerical value 'abc'"),
    ])
    def test_a_bad_last_cell_names_its_line(self, cell, message):
        column = ["1", "2", "3", cell]
        meta = ft.build_metadata(["1", "4"], "numerical", params())
        with pytest.raises(DataError, match=f"^row 41: {message}$"):
            ft.preprocess_column(column, [2, 3, 5, 41], "numerical", meta, params())
        with pytest.raises(DataError, match=f"^row 41: {message}$"):
            ft.build_metadata(column, "numerical", params(), [2, 3, 5, 41])

    def test_python_float_syntax_parses_as_it_does_per_cell(self):
        meta = ft.build_metadata(["1", "4"], "numerical", params())
        out = ft.preprocess_column(["1_000", " 2 ", "-0.0"], [2, 3, 4], "numerical", meta,
                                   params())
        assert out[:, 0].tolist() == [ft.parse_float(c) for c in ["1_000", " 2 ", "-0.0"]]
        assert out[:, 0].tolist() == [1000.0, 2.0, -0.0]


class TestZscoreInvariant:

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    @settings(max_examples=60)
    def test_normalized_training_column_has_zero_mean_unit_std(self, values):
        from hypothesis import assume
        assume(float(np.std(np.asarray(values))) > 1e-9)  # degenerate columns keep std = 1
        column = [repr(v) for v in values]
        meta = ft.build_metadata(column, "numerical", params())
        normalized = np.array([normalized_cell(c, meta)[0] for c in column])
        assert abs(normalized.mean()) < 1e-9
        assert abs(math.sqrt(((normalized - normalized.mean()) ** 2).mean()) - 1.0) < 1e-9


class TestPostprocess:

    def test_numerical_zero_denormalizes_to_mean(self):
        meta = ft.build_metadata(["1", "2", "3"], "numerical", params())
        raw = meta.denormalize(np.array([[0.0]]))
        assert ft.postprocess_prediction(raw, "numerical", meta) == [2.0]

    def test_category_argmax_oracle(self):
        meta = ft.VocabMetadata(type="category", id2token=["<UNK>", "x", "y"])
        probs = [0.1, 0.7, 0.2]
        assert ft.postprocess_prediction(np.array([probs]), "category", meta) == \
            [meta.id2token[int(np.argmax(probs))]] == ["x"]

    def test_category_tie_takes_lowest_index(self):
        meta = ft.VocabMetadata(type="category", id2token=["<UNK>", "x", "y"])
        assert ft.postprocess_prediction(np.array([[0.2, 0.4, 0.4]]), "category", meta) == ["x"]

    def test_binary_threshold(self):
        meta = ft.BinaryMetadata()
        assert ft.postprocess_prediction(np.array([[0.5]]), "binary", meta) == ["true"]
        assert ft.postprocess_prediction(np.array([[0.49]]), "binary", meta) == ["false"]

    def test_set_threshold_and_empty_result(self):
        meta = ft.build_metadata(["x y"], "set", params())
        low = np.full((1, meta.vocab_size), 0.4)
        assert ft.postprocess_prediction(low, "set", meta) == [[]]
        probs = np.full(meta.vocab_size, 0.1)
        probs[meta.token2id["y"]] = 0.9
        assert ft.postprocess_prediction(probs[np.newaxis], "set", meta) == [["y"]]

    def test_sequence_strips_trailing_padding(self):
        meta = ft.build_metadata(["a b", "b a"], "sequence", params())
        a, b, pad = meta.token2id["a"], meta.token2id["b"], meta.token2id[ft.PAD]
        # three rows of 2, 0 and 2 tokens, back to back
        tags = np.array([a, pad, pad, b])
        assert ft.postprocess_prediction(tags, "sequence", meta, np.array([2, 0, 2])) == \
            [["a"], [], [ft.PAD, "b"]]
        with pytest.raises(ShapeError):
            ft.postprocess_prediction(tags, "sequence", meta, np.array([2, 1]))

    # rows of tag ids, <PAD> (id 0) drawn as often as any two other tags
    @given(st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 3]), max_size=6), max_size=8))
    @example([])
    @example([[], [0, 0], [2, 0, 3, 0], [0, 1], []])  # empty, all-PAD and interior PAD rows
    @settings(max_examples=200)
    def test_sequence_rows_match_the_one_token_at_a_time_oracle(self, rows):
        meta = ft.VocabMetadata(type="sequence", id2token=[ft.PAD, ft.UNK, "a", "b"])
        tags = np.array([i for row in rows for i in row], dtype=np.int64)
        lengths = np.array(list(map(len, rows)), dtype=np.int64)
        assert ft.postprocess_prediction(tags, "sequence", meta, lengths) == \
            oracles.tag_rows_one_token_at_a_time(tags, lengths, meta.id2token)

    def test_dims_mismatch_is_shape_error(self):
        meta = ft.build_metadata(["a"], "category", params())
        with pytest.raises(ShapeError):
            ft.postprocess_prediction(np.array([[0.1, 0.2, 0.3, 0.4]]), "category", meta)

    def test_category_round_trip_through_one_hot(self):
        column = ["red", "green", "blue", "red"]
        meta = ft.build_metadata(column, "category", params())
        for token in ("red", "green", "blue"):
            encoded = one_cell(token, "category", meta)
            one_hot = np.zeros((1, meta.vocab_size))
            one_hot[0, int(encoded[0])] = 1.0
            assert ft.postprocess_prediction(one_hot, "category", meta) == [token]


def scored(kind, ftype, meta, p, cells, preds):
    """``compute_metric`` on the target array of ``cells``, and the string-space
    oracle on the cells and the predictions as strings. A tagger's ``preds``
    are [n x s x vocab], both scored at the real positions of ``cells``."""
    truths = ft.preprocess_column(cells, range(2, 2 + len(cells)), ftype, meta, p)
    lengths = None
    ids = preds
    if ftype == "binary":
        truths = truths == 1.0  # scored as hits, as the row collector passes them
    if ftype == "sequence":
        lengths = np.array([min(len(cell.split()), meta.max_sequence_length) for cell in cells])
        real = real_positions(lengths, truths.shape[1])
        truths, ids = truths[real], np.argmax(preds[real], axis=1)
    got = ft.compute_metric(kind, truths, ids)
    if ftype == "binary":
        strings = oracles.string_truths(cells, ftype)
        predicted = oracles.string_predictions(preds, ftype, None)
    else:
        strings = oracles.string_truths(cells, ftype, p.lowercase, meta.max_sequence_length)
        predicted = oracles.string_predictions(preds, ftype, meta.id2token, lengths)
    if kind == "cross_entropy":
        strings, predicted = [meta.token2id[t] for t in strings], list(preds)
    expected = oracles.string_metric(kind, strings, predicted)
    return got, expected


#: per output type: a training column, and in-vocabulary cells a scored column draws from
METRIC_COLUMNS = {
    "binary": (["true", "false"], ["true", "0", "YES", "f", "t"]),
    "category": (["a", "b", "a", "B", "c"], ["a", "b", "B", "c"]),
    "set": (["a b", "c", "C", "b d"], ["a", "a c", "C", "b b", "d a c", ""]),
    "sequence": (["a b c", "b", "B", "c c a b"], ["a", "b a c", "B", "c c a b", "a a a a a", ""]),
}


def prediction_shape(ftype, meta, n):
    if ftype == "binary":
        return (n, 1)
    if ftype == "sequence":
        return (n, meta.max_sequence_length, meta.vocab_size)
    return (n, meta.vocab_size)


class TestMetrics:

    @given(data=st.data(), ftype=st.sampled_from(sorted(METRIC_COLUMNS)), n=st.integers(1, 8),
           lowercase=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_id_space_equals_the_string_space_oracle(self, data, ftype, n, lowercase):
        training, cells = METRIC_COLUMNS[ftype]
        p = params(lowercase=lowercase, max_sequence_length=3)
        meta = ft.build_metadata(training, ftype, p)
        column = data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))
        # ties and the 0.5 threshold come up often
        values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
        preds = data.draw(arrays(np.float64, prediction_shape(ftype, meta, n), elements=values))
        for kind in ft.TYPE_METRICS[ftype]:
            got, expected = scored(kind, ftype, meta, p, column, preds)
            assert got == expected, kind

    def test_accuracy_of_perfect_predictor(self):
        assert ft.compute_metric("accuracy", [[1.0], [2.0]], np.eye(3)[[1, 2]]) == 1.0
        assert ft.compute_metric("accuracy", [[True], [False]], [[0.5], [0.49]]) == 1.0
        # the same [n x 1] width as a binary output: a one-class softmax, always id 0
        assert ft.compute_metric("accuracy", [[0.0], [0.0]], [[1.0], [1.0]]) == 1.0

    def test_r2_of_constant_mean_predictor_is_zero(self):
        truths = [1.0, 2.0, 3.0]
        mean = sum(truths) / len(truths)
        assert ft.compute_metric("r2", truths, [[mean]] * 3) == 0.0

    def test_mae_elementwise_oracle(self):
        truths, preds = [1.0, 2.0], [2.0, 4.0]
        expected = sum(abs(t - p) for t, p in zip(truths, preds)) / 2
        assert ft.compute_metric("mae", truths, [[p] for p in preds]) == expected == 1.5

    def test_mse(self):
        assert ft.compute_metric("mse", [1.0, 2.0], [[2.0], [4.0]]) == 2.5

    def test_numerical_metrics_sum_rows_in_order(self):
        # errors of 1e16, 1 and 1: added first to last, each 1 rounds away in
        # 1e16, while a compensated sum (builtin sum since Python 3.12) keeps both
        zeros = [[0.0]] * 3
        assert 1e16 + 1.0 + 1.0 != math.fsum([1e16, 1.0, 1.0])
        assert ft.compute_metric("mse", [1e8, 1.0, 1.0], zeros) == (1e16 + 1.0 + 1.0) / 3
        assert ft.compute_metric("mae", [1e16, 1.0, 1.0], zeros) == (1e16 + 1.0 + 1.0) / 3
        mean = (1e8 + 1.0 + 1.0) / 3
        ss_tot = (1e8 - mean) ** 2 + (1.0 - mean) ** 2 + (1.0 - mean) ** 2
        assert ft.compute_metric("r2", [1e8, 1.0, 1.0], zeros) == \
            1.0 - (1e16 + 1.0 + 1.0) / ss_tot

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1.0])
                    | st.floats(allow_nan=False), max_size=30))
    @settings(max_examples=300)
    def test_sum_is_the_left_to_right_fold(self, values):
        # RuntimeWarning is an error under the test configuration, so an
        # overflow to inf, or inf - inf, must not warn
        got, expected = ft._sum_in_order(values), oracles.sequential_fold_sum(values)
        assert type(got) is float
        assert got == expected or math.isnan(got) and math.isnan(expected)
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)
        assert ft._sum_in_order(np.array(values, dtype=np.float64)) == got or math.isnan(got)

    def test_terms_of_negative_zero_sum_to_positive_zero(self):
        assert math.copysign(1.0, ft._sum_in_order([-0.0, -0.0])) == 1.0
        assert ft._sum_in_order([]) == 0.0
        # -log(1.0) is -0.0 for every row; the loss of a certain prediction is +0.0
        score = ft.compute_metric("cross_entropy", [[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert score == 0.0 and math.copysign(1.0, score) == 1.0

    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=200)
    def test_numerical_metrics_are_the_per_row_loops(self, data, n):
        values = st.sampled_from([0.0, -0.0, 1e16, 1.0, 1e154, 1e200, -1e308, 5e-324]) \
            | st.floats(allow_nan=False, allow_infinity=False)
        truths = data.draw(st.lists(values, min_size=n, max_size=n))
        preds = data.draw(st.lists(values, min_size=n, max_size=n))
        for kind in ("mse", "mae", "r2"):
            try:
                expected = oracles.numerical_metric_loop(kind, truths, preds)
            except OverflowError:
                with pytest.raises(OverflowError):
                    ft.compute_metric(kind, truths, [[p] for p in preds])
                continue
            got = ft.compute_metric(kind, truths, [[p] for p in preds])
            assert got == expected or math.isnan(got) and math.isnan(expected), kind

    def test_token_accuracy_counts_a_predicted_pad_as_a_miss(self):
        meta = ft.build_metadata(["a b c x"], "sequence", params())
        preds = np.zeros((1, 4, meta.vocab_size))
        for position, tag in enumerate(["a", "x", ft.PAD]):
            preds[0, position, meta.token2id[tag]] = 1.0
        got, expected = scored("token_accuracy", "sequence", meta, params(), ["a b c"], preds)
        assert got == expected == pytest.approx(1 / 3)

    def test_jaccard(self):
        meta = ft.build_metadata(["a b c"], "set", params())
        preds = np.zeros((2, meta.vocab_size))
        preds[0, [meta.token2id["b"], meta.token2id["c"]]] = 0.5
        got, expected = scored("jaccard", "set", meta, params(), ["a b", ""], preds)
        assert got == expected == pytest.approx((1 / 3 + 1.0) / 2)

    def test_cross_entropy_metric(self):
        score = ft.compute_metric("cross_entropy", [[0.0], [1.0]], np.full((2, 2), 0.5))
        assert abs(score - math.log(2.0)) < 1e-12

    def test_out_of_vocabulary_category_truth_is_scored_as_unk(self):
        meta = ft.build_metadata(["a", "b"], "category", params())
        unk = np.array([[0.6, 0.2, 0.2]])
        got, expected = scored("accuracy", "category", meta, params(), ["zz"], unk)
        assert (got, expected) == (1.0, 0.0)  # the loss trains "zz" as <UNK>

    def test_out_of_vocabulary_set_tokens_are_scored_as_unk(self):
        meta = ft.build_metadata(["a b"], "set", params())
        unk = np.array([[0.9, 0.1, 0.1]])
        got, expected = scored("jaccard", "set", meta, params(), ["p q"], unk)
        assert (got, expected) == (1.0, 0.0)  # both unseen tokens are the one <UNK> hit
        got, _ = scored("jaccard", "set", meta, params(), ["p q a"], unk)
        assert got == 0.5

    def test_length_mismatch_is_contract_error(self):
        with pytest.raises(ContractError):
            ft.compute_metric("accuracy", [[1.0]], [[0.5], [0.5]])

    def test_improvement_directions(self):
        assert ft.higher_is_better("accuracy")
        assert not ft.higher_is_better("mse")
        assert not ft.higher_is_better("loss")


class TestMinmaxNormalization:

    def test_maps_training_range_to_unit_interval(self):
        meta = ft.build_metadata(["2", "4", "10"], "numerical", params(normalization="minmax"))
        assert normalized_cell("2", meta)[0] == 0.0
        assert normalized_cell("10", meta)[0] == 1.0
        assert normalized_cell("6", meta)[0] == 0.5

    def test_denormalize_inverts(self):
        meta = ft.build_metadata(["2", "4", "10"], "numerical", params(normalization="minmax"))
        for raw in ("2.0", "5.5", "10.0"):
            encoded = normalized_cell(raw, meta)[0]
            assert abs(meta.denormalize(encoded) - float(raw)) < 1e-12

    def test_none_normalization_is_identity(self):
        meta = ft.build_metadata(["3", "7"], "numerical", params(normalization="none"))
        assert normalized_cell("5", meta)[0] == 5.0


class TestNumericalValues:
    """A numerical column's array is its raw values, missing cells filled."""

    @staticmethod
    def column(cells, lines, meta, p):
        out = ft.preprocess_column(cells, lines, "numerical", meta, p)
        assert out.dtype == np.float64 and out.shape == (len(cells), 1)
        return out[:, 0].tolist()

    def test_missing_cell_is_its_filled_value(self):
        meta = ft.build_metadata(["2", "5"], "numerical", params())
        assert self.column(["", "4"], [2, 3], meta, params()) == [0.0, 4.0]
        assert self.column([""], [2], meta, params(missing_strategy="fill_mean")) == [3.5]

    def test_values_stay_raw_under_every_normalization(self):
        for normalization in ft.NORMALIZATIONS:
            p = params(normalization=normalization)
            meta = ft.build_metadata(["2", "5"], "numerical", p)
            assert self.column(["0.1", "7"], [2, 3], meta, p) == [0.1, 7.0]

    def test_bad_cell_names_its_line(self):
        meta = ft.build_metadata(["2", "5"], "numerical", params())
        with pytest.raises(DataError, match=r"^row 7: unparseable numerical value 'abc'$"):
            ft.preprocess_column(["1", "abc"], [2, 7], "numerical", meta, params())


class TestMetadataSerialization:

    @pytest.mark.parametrize("column,ftype", [
        (["a", "b", "a"], "category"),
        (["a b", "c"], "sequence"),
        (["x y", "y"], "set"),
        (["1", "2"], "numerical"),
        (["true"], "binary"),
        (["1 2 3"], "vector"),
    ])
    def test_round_trip(self, column, ftype):
        meta = ft.build_metadata(column, ftype, params())
        assert ft.metadata_from_dict(ft.metadata_to_dict(meta)) == meta

    @pytest.mark.parametrize("payload,match", [
        ([], "must be an object"),
        ({"type": "tensor"}, "unknown type 'tensor'"),
        ({"type": ["vector"]}, r"unknown type \['vector'\]"),
        ({"type": "vector"}, "'length' is missing"),
        ({"type": "vector", "length": "3"}, "'length' is missing or ill-typed"),
        ({"type": "vector", "length": True}, "'length' is missing or ill-typed"),
        ({"type": "numerical", "mean": 0.0, "std": None, "normalization": "zscore",
          "min": 0.0, "max": 1.0}, "'std'"),
        ({"type": "category", "id2token": {}, "max_sequence_length": 1}, "'id2token'"),
        # a JSON integer beyond float64 is no finite statistic
        ({"type": "numerical", "mean": 0.0, "std": 1.0, "normalization": "zscore",
          "min": 0.0, "max": 10**400}, "'max' must be finite"),
    ])
    def test_malformed_entry_is_data_error(self, payload, match):
        with pytest.raises(DataError, match=match):
            ft.metadata_from_dict(payload)
