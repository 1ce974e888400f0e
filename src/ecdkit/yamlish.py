"""Minimal config-document language: the YAML subset of block maps, block
sequences, flow lists of scalars, scalars, and comments.

Deliberately excluded: anchors, aliases, tags, flow maps, block scalars, and
multi-document streams; encountering any of them is a parse error. Errors
carry the offending line number. The package only reads this language, from
the definitions users write; everything it writes is JSON.
"""

from __future__ import annotations

import re

from .errors import ParseError

_INT_RE = re.compile(r"^[-+]?\d+$")
_FLOAT_RE = re.compile(r"^[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?$")


class _Line:
    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int):
        self.indent = indent
        self.content = content
        self.number = number


def _strip_comment(raw: str, number: int) -> str:
    quote = None
    escaped = False
    for i, ch in enumerate(raw):
        if quote:
            if escaped:
                escaped = False
            elif quote == '"' and ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i]
    if quote:
        raise ParseError("unterminated quoted string", number)
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
    if not lines:
        return {}
    value, next_index = _parse_block(lines, 0, len(lines))
    if next_index != len(lines):
        raise ParseError("unexpected de-indentation", lines[next_index].number)
    return value


def _parse_block(lines: list[_Line], start: int, end: int):
    indent = lines[start].indent
    if lines[start].content == "-" or lines[start].content.startswith("- "):
        return _parse_sequence(lines, start, end, indent)
    return _parse_mapping(lines, start, end, indent)


def _block_end(lines, start, end, indent) -> int:
    i = start
    while i < end and lines[i].indent > indent:
        i += 1
    return i


def _parse_mapping(lines, start, end, indent):
    result: dict = {}
    i = start
    while i < end:
        line = lines[i]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise ParseError("unexpected indentation", line.number)
        if line.content == "-" or line.content.startswith("- "):
            raise ParseError("sequence item inside a mapping", line.number)
        key, rest = _split_key(line.content, line.number)
        if key in result:
            raise ParseError(f"duplicate key {key!r}", line.number)
        nested_end = _block_end(lines, i + 1, end, indent)
        if rest:
            value = _parse_scalar(rest, line.number)
            if nested_end != i + 1:
                raise ParseError(f"value for {key!r} cannot combine inline and nested forms",
                                 lines[i + 1].number)
            result[key] = value
            i += 1
        elif nested_end == i + 1:
            result[key] = None
            i += 1
        else:
            value, consumed = _parse_block(lines, i + 1, nested_end)
            if consumed != nested_end:
                raise ParseError("unexpected de-indentation", lines[consumed].number)
            result[key] = value
            i = nested_end
    return result, i


def _parse_sequence(lines, start, end, indent):
    result: list = []
    i = start
    while i < end:
        line = lines[i]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise ParseError("unexpected indentation", line.number)
        if not (line.content == "-" or line.content.startswith("- ")):
            raise ParseError("expected a sequence item", line.number)
        rest = line.content[1:].lstrip()
        item_indent = indent + 2
        nested_end = _block_end(lines, i + 1, end, indent)
        if not rest:
            if nested_end == i + 1:
                result.append(None)
            else:
                value, consumed = _parse_block(lines, i + 1, nested_end)
                if consumed != nested_end:
                    raise ParseError("unexpected de-indentation", lines[consumed].number)
                result.append(value)
            i = nested_end
            continue
        if _is_key_value(rest):
            # map item whose first entry shares the dash line
            virtual = [_Line(item_indent, rest, line.number)] + lines[i + 1 : nested_end]
            value, consumed = _parse_mapping(virtual, 0, len(virtual), item_indent)
            if consumed != len(virtual):
                raise ParseError("unexpected de-indentation", virtual[consumed].number)
            result.append(value)
        else:
            if nested_end != i + 1:
                raise ParseError("scalar sequence item cannot have a nested block",
                                 lines[i + 1].number)
            result.append(_parse_scalar(rest, line.number))
        i = nested_end
    return result, i


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


def _read_quoted(s: str, number: int) -> tuple[str, int]:
    quote = s[0]
    out = []
    i = 1
    while i < len(s):
        ch = s[i]
        if quote == '"' and ch == "\\" and i + 1 < len(s):
            esc = s[i + 1]
            out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
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
    body = s[1:-1].strip()
    if not body:
        return []
    items = []
    quote = None
    escaped = False
    token = []
    for ch in body:
        if quote:
            token.append(ch)
            if escaped:
                escaped = False
            elif quote == '"' and ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            token.append(ch)
        elif ch == "[":
            raise ParseError("nested flow lists are not supported", number)
        elif ch == ",":
            items.append("".join(token))
            token = []
        else:
            token.append(ch)
    items.append("".join(token))
    return [_parse_scalar(item, number) for item in items]
