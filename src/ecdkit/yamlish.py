"""Minimal config-document language: the YAML subset of block maps, block
sequences, flow lists of scalars, scalars, and comments.

A quote opens a quoted scalar only as the first character of a key, a value,
a sequence item or a flow-list item; elsewhere, as in ``user's_age``, it is
plain text. A double-quoted scalar takes the escapes ``\\n``, ``\\t``,
``\\"`` and ``\\\\``; a single-quoted one takes none, so ``''`` does not stand
for a quote. A ``#`` that starts a line or follows a blank, outside a quoted
scalar, starts a comment.

Deliberately excluded: anchors, aliases, tags, flow maps, nested flow lists,
block scalars, other escapes, and multi-document streams; encountering any of
them is a parse error. Errors carry the offending line number. The package
only reads this language, from the definitions users write; everything it
writes is JSON.
"""

from __future__ import annotations

import re

from .errors import ParseError

_INT_RE = re.compile(r"^[-+]?\d+$")
_FLOAT_RE = re.compile(r"^[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?$")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class _Line:
    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int):
        self.indent = indent
        self.content = content
        self.number = number


def _unquoted(s: str, number: int, key: bool = True):
    """Each ``(index, character)`` of ``s`` outside its quoted scalars: ``s``
    is a line, or with ``key`` false a value. A quote opens a quoted scalar
    only where a token starts: at the line's key or its sequence item, after
    the key's ``:``, and at a flow list's items."""
    start = True  # the next non-blank character starts a token
    dash = key  # ... and may be a sequence item's dash
    quoted_key = False  # the key was quoted, so a ':' right after it ends it
    flow = False
    i = 0
    while i < len(s):
        ch = s[i]
        if start and ch in "'\"":
            quoted_key = key
            i = _read_quoted(s, number, i)[1]
            start = dash = False
            continue
        yield i, ch
        if not ch.isspace():
            after = s[i + 1 : i + 2]  # "" at the end of s
            item = dash and ch == "-" and after in ("", " ")
            value = key and ch == ":" and (quoted_key or after in ("", " ", "\t"))
            key = key and not value
            flow = not value and (flow or start and ch == "[")
            start = item or value or flow and ch in "[,"
            dash = quoted_key = False
        i += 1


def _strip_comment(raw: str, number: int) -> str:
    for i, ch in _unquoted(raw, number):
        if ch == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i]
    return raw


def _scan(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ParseError("tabs are not allowed in indentation", number)
        stripped = _strip_comment(raw, number).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        content = stripped.lstrip(" ")
        if content.startswith("---") or content.startswith("..."):
            raise ParseError("multi-document markers are not supported", number)
        lines.append(_Line(indent, content, number))
    return lines


def loads(text: str):
    """Parse a document into dicts, lists, and scalars."""
    lines = _scan(text)
    return _parse_block(lines, 0, len(lines)) if lines else {}


def _is_item(content: str) -> bool:
    return content == "-" or content.startswith("- ")


def _parse_block(lines: list[_Line], start: int, end: int):
    if _is_item(lines[start].content):
        return _parse_sequence(lines, start, end)
    return _parse_mapping(lines, start, end)


def _entries(lines: list[_Line], start: int, end: int):
    """Each entry of the block ``lines[start:end]``, which must fill them,
    as its index and the end of the lines nested under it."""
    indent = lines[start].indent
    i = start
    while i < end:
        line = lines[i]
        if line.indent < indent:
            raise ParseError("unexpected de-indentation", line.number)
        if line.indent > indent:
            raise ParseError("unexpected indentation", line.number)
        nested_end = i + 1
        while nested_end < end and lines[nested_end].indent > indent:
            nested_end += 1
        yield i, nested_end
        i = nested_end


def _parse_nested(lines: list[_Line], i: int, nested_end: int):
    """The block nested under ``lines[i]``, or None when there is none."""
    return _parse_block(lines, i + 1, nested_end) if nested_end > i + 1 else None


def _parse_mapping(lines, start, end):
    result: dict = {}
    for i, nested_end in _entries(lines, start, end):
        line = lines[i]
        if _is_item(line.content):
            raise ParseError("sequence item inside a mapping", line.number)
        key, rest = _split_key(line.content, line.number)
        if key in result:
            raise ParseError(f"duplicate key {key!r}", line.number)
        if not rest:
            result[key] = _parse_nested(lines, i, nested_end)
            continue
        result[key] = _parse_scalar(rest, line.number)
        if nested_end != i + 1:
            raise ParseError(f"value for {key!r} cannot combine inline and nested forms",
                             lines[i + 1].number)
    return result


def _parse_sequence(lines, start, end):
    result: list = []
    for i, nested_end in _entries(lines, start, end):
        line = lines[i]
        if not _is_item(line.content):
            raise ParseError("expected a sequence item", line.number)
        rest = line.content[1:].lstrip()
        if not rest:
            result.append(_parse_nested(lines, i, nested_end))
        elif _is_key_value(rest):
            # map item whose first entry shares the dash line
            virtual = [_Line(line.indent + 2, rest, line.number)] + lines[i + 1 : nested_end]
            result.append(_parse_mapping(virtual, 0, len(virtual)))
        elif nested_end != i + 1:
            raise ParseError("scalar sequence item cannot have a nested block",
                             lines[i + 1].number)
        else:
            result.append(_parse_scalar(rest, line.number))
    return result


def _is_key_value(content: str) -> bool:
    try:
        _split_key(content, 0)
        return True
    except ParseError:
        return False


def _split_key(content: str, number: int) -> tuple[str, str]:
    if content.startswith(("'", '"')):
        key, rest_index = _read_quoted(content, number)
        rest = content[rest_index:].lstrip()
        if not rest.startswith(":"):
            raise ParseError("quoted key must be followed by ':'", number)
        return key, rest[1:].strip()
    for i, ch in enumerate(content):
        if ch == ":" and (i + 1 == len(content) or content[i + 1] in " \t"):
            key = content[:i].strip()
            if not key:
                raise ParseError("empty mapping key", number)
            return key, content[i + 1 :].strip()
    raise ParseError(f"expected 'key: value', got {content!r}", number)


def _read_quoted(s: str, number: int, start: int = 0) -> tuple[str, int]:
    """The quoted scalar that opens at ``s[start]``, and the index past it."""
    quote = s[start]
    out = []
    i = start + 1
    while i < len(s):
        ch = s[i]
        if quote == '"' and ch == "\\" and i + 1 < len(s):
            esc = s[i + 1]
            if esc not in _ESCAPES:
                raise ParseError(f"unsupported escape '\\{esc}' in a double-quoted scalar; "
                                 "supported: \\n, \\t, \\\" and \\\\", number)
            out.append(_ESCAPES[esc])
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ParseError("unterminated quoted string", number)


def _parse_scalar(s: str, number: int):
    s = s.strip()
    if s == "" or s in ("null", "~"):
        return None
    first = s[0]
    if first in "&*":
        raise ParseError("anchors and aliases are not supported", number)
    if first == "!":
        raise ParseError("tags are not supported", number)
    if first in "|>":
        raise ParseError("block scalars are not supported", number)
    if first == "{":
        raise ParseError("flow mappings are not supported", number)
    if first == "[":
        return _parse_flow_list(s, number)
    if first in "'\"":
        value, consumed = _read_quoted(s, number)
        if s[consumed:].strip():
            raise ParseError("trailing content after quoted scalar", number)
        return value
    if s == "true":
        return True
    if s == "false":
        return False
    if _INT_RE.match(s):
        return int(s)
    if _FLOAT_RE.match(s):
        return float(s)
    return s


def _parse_flow_list(s: str, number: int):
    if not s.endswith("]"):
        raise ParseError("unterminated flow list", number)
    if not s[1:-1].strip():
        return []
    commas = []
    for i, ch in _unquoted(s, number, key=False):
        if ch == "[" and i:
            raise ParseError("nested flow lists are not supported", number)
        if ch == ",":
            commas.append(i)
    bounds = [0, *commas, len(s) - 1]
    return [_parse_scalar(s[a + 1 : b], number) for a, b in zip(bounds, bounds[1:])]
