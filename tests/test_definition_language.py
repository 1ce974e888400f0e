"""The definition language: the quote rule, escapes, the byte-order mark,
README's examples, and agreement with the parser it replaced."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdkit import yamlish
from ecdkit.cli import main
from ecdkit.config import parse_model_definition, resolve_defaults, validate
from ecdkit.data import load_dataset, read_text
from ecdkit.errors import ConfigError, DataError, ParseError
from ecdkit.registry import build_default_registries

import synth
from oracles import yamlish_loads


def _outcome(loads, text):
    """What ``loads`` makes of ``text``: its value, or its error's text and line."""
    try:
        return "value", loads(text)
    except ParseError as exc:
        return "error", str(exc), exc.line


# ---------------------------------------------------------------------------
# agreement with the parser that tracked quote state in two loops
# ---------------------------------------------------------------------------

# plain text holds no quote and no backslash, so outside the parts marked
# changed every quote opens a key, a value, a sequence item or a flow-list
# item, and both parsers read it alike
_PLAIN = st.text(alphabet="ab1.-:,[]#&*!|>{}~ ", max_size=6)
_KEY = st.text(alphabet="ab1-_.[], ", min_size=1, max_size=4)
_ESCAPED = ["a", " ", "'", "#", ":", ",", "]", "\\n", "\\t", '\\"', "\\\\"]


@st.composite
def _quoted(draw):
    """A quoted scalar, perhaps left open, and whether it holds an escape
    that the fixed parser rejects."""
    if draw(st.booleans()):
        quote, body, rejected = "'", draw(st.text(alphabet='ab "\\#:,]', max_size=5)), False
    else:
        rejected = draw(st.integers(0, 19)) == 0
        body = "".join(draw(st.lists(st.sampled_from(_ESCAPED), max_size=5)))
        quote, body = '"', body + "\\x41" * rejected
    closed = draw(st.integers(0, 9)) > 0
    return quote + body + (quote if closed else ""), rejected


@st.composite
def _token(draw, plain):
    """A key, value or flow item as ``(text, changed)``: ``changed`` marks
    text that the quote and escape fixes read differently: a quote inside
    plain text or an unsupported escape."""
    kind = draw(st.integers(0, 19))
    if kind < 9:
        return draw(plain), False
    if kind < 19:
        return draw(_quoted())
    return draw(st.sampled_from(["it's", "x 'y", 'say "hi"', "a'b # c"])), True


@st.composite
def _value(draw):
    kind = draw(st.integers(0, 9))
    if kind < 7:
        return draw(_token(_PLAIN))
    if kind < 9:
        items = draw(st.lists(_token(st.text(alphabet="ab1 #", max_size=3)), max_size=4))
        parts = [("[", False)]
        for item in items:
            parts += [(draw(st.sampled_from([",", ", ", " , "])), False)] if len(parts) > 1 else []
            parts.append(item)
        return _joined(parts + [(draw(st.sampled_from(["]", "]", "]", "", "] x"])), False)])
    return draw(st.sampled_from(["", "{a: b}", "&a", "*a", "!t", "|", "---", "..."])), False


@st.composite
def _line(draw):
    """One line and whether it holds text the fixes read differently."""
    indent = draw(st.sampled_from(["", "", "", "  ", "  ", "    ", "      ", " ", "\t"]))
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return indent + draw(_PLAIN), False
    if shape == 1:
        return indent + "-", False
    parts = [(draw(st.sampled_from(["", "- "])), False)]
    value = draw(_value())
    if shape < 7:
        parts += [draw(_token(_KEY)), (":", False)]
        if value[0]:
            parts += [(draw(st.sampled_from([" ", "  "])), False), value]
    else:
        parts.append(value)
    parts.append((draw(st.sampled_from(["", "", " # note", " #", "#x"])), False))
    text, changed = _joined(parts)
    return indent + text, changed


def _joined(parts):
    """The ``(text, changed)`` parts as one: changed if a part is, or if a
    quote left open reaches over a later quote, which then sits in plain
    text."""
    text, changed, left_open = "", False, False
    for part, part_changed in parts:
        changed = changed or part_changed or left_open and any(q in part for q in "'\"")
        left_open = left_open or part[:1] in ("'", '"') and _left_open(part)
        text += part
    return text, changed


def _left_open(quoted: str) -> bool:
    body = quoted[1:]
    if quoted[0] == '"':
        body = re.sub(r"\\.", "", body)
    return quoted[0] not in body


class TestAgreesWithTheOracle:

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_line(), min_size=1, max_size=8))
    def test_same_value_or_same_error(self, lines):
        text = "\n".join(line for line, _ in lines)
        if any(changed for _, changed in lines):
            # read differently on purpose: still a value or a ParseError
            _outcome(yamlish.loads, text)
            return
        assert _outcome(yamlish.loads, text) == _outcome(yamlish_loads, text)


# ---------------------------------------------------------------------------
# the fixes
# ---------------------------------------------------------------------------

class TestQuotesInsidePlainText:

    @pytest.mark.parametrize("text,expected", [
        ("a: [it's, b]", {"a": ["it's", "b"]}),
        ("a: x 'y # z'", {"a": "x 'y"}),
        ("- name: user's_age\n  type: numerical\n", [{"name": "user's_age", "type": "numerical"}]),
        ("it's: 1", {"it's": 1}),
        ('a: 6" tall', {"a": '6" tall'}),
        ("- x 'y\n", ["x 'y"]),
    ])
    def test_a_quote_inside_plain_text_is_text(self, text, expected):
        assert yamlish.loads(text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("a: 'x # y'", {"a": "x # y"}),
        ("- 'x # y'", ["x # y"]),
        ("'k: v': 1", {"k: v": 1}),
        ("a: [b, 'c, d']", {"a": ["b", "c, d"]}),
        ("a: ['x', \"y\"]", {"a": ["x", "y"]}),
    ])
    def test_a_quote_that_starts_a_token_opens_a_quoted_scalar(self, text, expected):
        assert yamlish.loads(text) == expected

    def test_an_open_quote_at_a_token_start_is_still_an_error(self):
        with pytest.raises(ParseError, match=r"^line 2: unterminated quoted string$"):
            yamlish.loads("a: 1\nb: 'x # y\n")

    def test_a_definition_with_a_quoted_column_name_trains(self, tmp_path):
        dataset = synth.linear_binary(tmp_path / "data.csv", n=60, seed=0)
        text = dataset.read_text().replace("f0", "user's_age", 1)
        dataset.write_text(text)
        config = tmp_path / "model.yaml"
        config.write_text("input_features:\n  - name: user's_age\n    type: numerical\n"
                          "  - name: f1\n    type: numerical\n"
                          "output_features:\n  - name: label\n    type: binary\n"
                          "training:\n  epochs: 1\n")
        code = main(["train", "-c", str(config), "-d", str(dataset), "-o",
                     str(tmp_path / "run"), "--quiet"])
        assert code == 0


class TestEscapes:

    @pytest.mark.parametrize("escaped,expected", [
        ("\\n", "\n"), ("\\t", "\t"), ('\\"', '"'), ("\\\\", "\\"),
    ])
    def test_supported_escapes(self, escaped, expected):
        assert yamlish.loads(f'a: "x{escaped}y"') == {"a": f"x{expected}y"}

    @pytest.mark.parametrize("escape", ["\\x", "\\u", "\\0", "\\'", "\\ "])
    def test_any_other_escape_names_itself_and_its_line(self, escape):
        with pytest.raises(ParseError) as err:
            yamlish.loads(f'ok: 1\na: "{escape}41"\n')
        assert err.value.line == 2
        assert str(err.value).startswith(f"line 2: unsupported escape '{escape}' ")

    def test_a_backslash_in_single_quotes_or_plain_text_is_text(self):
        assert yamlish.loads("a: 'x\\41'\nb: x\\41") == {"a": "x\\41", "b": "x\\41"}

    def test_an_unsupported_escape_exits_2(self, tmp_path, capsys):
        config = tmp_path / "model.yaml"
        config.write_text('input_features:\n  - name: "\\x41"\n    type: numerical\n')
        code = main(["train", "-c", str(config), "-d", str(tmp_path / "d.csv"), "-o",
                     str(tmp_path / "run")])
        assert code == 2
        assert "line 2: unsupported escape '\\x'" in capsys.readouterr().err


class TestByteOrderMark:

    def test_a_dataset_header_loses_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\r\n1,2\r\n")
        assert load_dataset(path).header == ["x", "y"]

    def test_a_definition_loses_it(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_bytes("\ufeffinput_features: []\n".encode("utf-8"))
        assert yamlish.loads(read_text(path, ConfigError, "config file")) == {"input_features": []}

    def test_only_one_leading_mark_goes(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_bytes("\ufeff\ufeffa".encode("utf-8"))
        assert read_text(path, ConfigError, "config file") == "\ufeffa"

    def test_a_bad_byte_keeps_its_file_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfx\n\xff\n")
        with pytest.raises(DataError, match=r"is not UTF-8: line 2, byte offset 5$"):
            load_dataset(path)

    def test_a_dataset_saved_with_it_trains(self, tmp_path):
        dataset = synth.linear_binary(tmp_path / "data.csv", n=60, seed=0)
        dataset.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        config = tmp_path / "model.yaml"
        config.write_bytes(b"\xef\xbb\xbf" + "input_features:\n  - name: f0\n    type: numerical\n"
                           "output_features:\n  - name: label\n    type: binary\n"
                           "training:\n  epochs: 1\n".encode("utf-8"))
        code = main(["train", "-c", str(config), "-d", str(dataset), "-o",
                     str(tmp_path / "run"), "--quiet"])
        assert code == 0


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

_README = Path(__file__).resolve().parent.parent / "README.md"
_EXAMPLES = re.findall(r"^```yaml\n(.*?)^```", _README.read_text(encoding="utf-8"),
                       flags=re.M | re.S)


def test_readme_has_definition_examples():
    assert len(_EXAMPLES) >= 2


@pytest.mark.parametrize("text", _EXAMPLES)
def test_readme_example_is_a_valid_definition(text):
    registries = build_default_registries()
    definition = resolve_defaults(parse_model_definition(text), registries)
    header = [spec.name for spec in definition.input_features + definition.output_features]
    assert validate(definition, header, registries) == []
