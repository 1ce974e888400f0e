"""Parser for the block-style config document subset."""

import pytest

from ecdkit import yamlish
from ecdkit.errors import ParseError


class TestScalars:

    @pytest.mark.parametrize("text,expected", [
        ("a: 1", {"a": 1}),
        ("a: -7", {"a": -7}),
        ("a: 1.5", {"a": 1.5}),
        ("a: 1e-3", {"a": 1e-3}),
        ("a: true", {"a": True}),
        ("a: false", {"a": False}),
        ("a: null", {"a": None}),
        ("a: ~", {"a": None}),
        ("a:", {"a": None}),
        ("a: hello", {"a": "hello"}),
        ('a: "quoted: value"', {"a": "quoted: value"}),
        ("a: 'single'", {"a": "single"}),
        ("a: [1, 2, 3]", {"a": [1, 2, 3]}),
        ("a: []", {"a": []}),
        ("a: [x, y]", {"a": ["x", "y"]}),
    ])
    def test_scalar_forms(self, text, expected):
        assert yamlish.loads(text) == expected

    def test_comments_and_blank_lines(self):
        text = "# top comment\na: 1  # trailing\n\nb: 2\n"
        assert yamlish.loads(text) == {"a": 1, "b": 2}

    def test_hash_inside_quotes_is_content(self):
        assert yamlish.loads('a: "b # c"') == {"a": "b # c"}


class TestStructure:

    def test_nested_maps_and_sequences(self):
        text = (
            "input_features:\n"
            "  - name: title\n"
            "    type: text\n"
            "    encoder: rnn\n"
            "  - name: price\n"
            "    type: numerical\n"
            "combiner:\n"
            "  fc_sizes: [64, 32]\n"
        )
        assert yamlish.loads(text) == {
            "input_features": [
                {"name": "title", "type": "text", "encoder": "rnn"},
                {"name": "price", "type": "numerical"},
            ],
            "combiner": {"fc_sizes": [64, 32]},
        }

    def test_sequence_of_scalars(self):
        assert yamlish.loads("deps:\n  - a\n  - b\n") == {"deps": ["a", "b"]}

    def test_empty_document(self):
        assert yamlish.loads("") == {}
        assert yamlish.loads("# only a comment\n") == {}


class TestErrors:

    @pytest.mark.parametrize("text,line", [
        ("a: &anchor\n", 1),
        ("a: *alias\n", 1),
        ("a: !tag\n", 1),
        ("a: |\n  block\n", 1),
        ("a: {flow: map}\n", 1),
        ("ok: 1\n---\n", 2),
        ("a: 1\na: 2\n", 2),
        ("\tindent: 1\n", 1),
        ('a: "unterminated\n', 1),
        ("a: [1, 2\n", 1),
    ])
    def test_rejected_constructs_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            yamlish.loads(text)
        assert err.value.line == line

    def test_stray_indentation(self):
        with pytest.raises(ParseError):
            yamlish.loads("a: 1\n    b: 2\n")

    def test_sequence_item_inside_mapping(self):
        with pytest.raises(ParseError):
            yamlish.loads("a: 1\n- b\n")
