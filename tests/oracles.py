"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, no shared code with the package) so that agreement between the
two paths is meaningful evidence of correctness.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import struct

import numpy as np

from ecdkit.errors import ParseError


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def conv1d_sliding_window(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded 1-d convolution, one output position at a time."""
    s, h = x.shape
    w, h2, f = filters.shape
    assert h == h2 and w % 2 == 1
    pad = w // 2
    out = np.zeros((s, f))
    for t in range(s):
        for j in range(f):
            acc = bias[j]
            for k in range(w):
                src = t + k - pad
                if 0 <= src < s:
                    for c in range(h):
                        acc += x[src, c] * filters[k, c, j]
            out[t, j] = acc
    return out


def rnn_scalar_loop(rows, w_in, w_rec, bias) -> list[np.ndarray]:
    """Each row's states [len(row) x n] of h_t = tanh(x_t W + h_{t-1} U + b)
    from h_{-1} = 0, one row, step and unit at a time. ``rows`` is a list of
    [steps x e] token arrays."""
    n_in, n = w_in.shape
    states = []
    for x in rows:
        h = [0.0] * n
        out = np.zeros((len(x), n))
        for t in range(len(x)):
            nxt = []
            for j in range(n):
                acc = bias[j]
                for i in range(n_in):
                    acc += x[t][i] * w_in[i, j]
                for i in range(n):
                    acc += h[i] * w_rec[i, j]
                nxt.append(math.tanh(acc))
            h = nxt
            out[t] = h
        states.append(out)
    return states


def cross_entropy_logsumexp(logits: np.ndarray, ids) -> float:
    total = 0.0
    for row, target in zip(logits, ids):
        lse = math.log(sum(math.exp(v) for v in row))
        total += lse - row[int(target)]
    return total / len(ids)


def sequential_fold_sum(values) -> float:
    acc = 0.0
    for v in values:
        acc = acc + v
    return acc


def numerical_metric_loop(kind: str, truths: list[float], preds: list[float]) -> float:
    """``mse``, ``mae`` or ``r2`` one row at a time in Python float arithmetic,
    each sum a left-to-right fold from 0.0; an error squared past the float
    range raises OverflowError, as Python's ``**`` does."""
    n = len(truths)
    if kind == "mae":
        return sequential_fold_sum(abs(t - p) for t, p in zip(truths, preds)) / n
    squared = sequential_fold_sum((t - p) ** 2 for t, p in zip(truths, preds))
    if kind == "mse":
        return squared / n
    mean = sequential_fold_sum(truths) / n
    spread = sequential_fold_sum((t - mean) ** 2 for t in truths)
    return 0.0 if spread == 0.0 else 1.0 - squared / spread


def parse_cells_one_at_a_time(cells: list[str], lines: list[int], ftype: str):
    """A numerical or binary column parsed one cell at a time: ``(values,
    None)``, or ``(None, message)`` for the first cell that does not parse,
    worded as the package words it, with the cell's line."""
    true_forms, false_forms = ["1", "t", "true", "yes"], ["0", "f", "false", "no"]
    values = []
    for line, cell in zip(lines, cells):
        if ftype == "binary":
            form = cell.strip().lower()
            if form not in true_forms + false_forms:
                return None, (f"row {line}: unrecognized binary value {cell!r} "
                              f"(expected one of {true_forms} / {false_forms})")
            values.append(1.0 if form in true_forms else 0.0)
            continue
        try:
            value = float(cell)
        except ValueError:
            return None, f"row {line}: unparseable numerical value {cell!r}"
        if math.isnan(value) or math.isinf(value):
            return None, f"row {line}: non-finite numerical value {cell!r}"
        values.append(value)
    return values, None


def csv_writer_bytes(rows: list[list]) -> bytes:
    """UTF-8 bytes of ``rows`` written by ``csv.writer`` in its default
    dialect: minimal quoting, ``\\r\\n`` line ends, a float as its repr."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def adam_recurrence(w0: float, grads: list[float], lr: float, beta1: float,
                    beta2: float, eps: float) -> float:
    """Direct transcription of the bias-corrected Adam update."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


def optimizer_formula(kind: str, w: np.ndarray, grads: list, lr: float, beta1: float,
                      beta2: float, eps: float):
    """Weights, first and second moments after one step per gradient.

    Whole-array expressions, one new array per operation: the reference the
    in-place update must match bit for bit.
    """
    m, v = np.zeros_like(w), np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        if kind == "sgd":
            w = w - lr * g
        else:
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w, m, v


def per_parameter_step(kind: str, lr: float, beta1: float, beta2: float, eps: float, t: int,
                       weights: dict, grads: dict, first: dict, second: dict) -> dict:
    """Step ``t`` of an optimizer run one parameter at a time, with the
    ufunc sequence the packed update runs once over its whole buffer.

    Returns the new weights by name; ``first`` and ``second`` hold Adam's
    moments by name and are updated in place.
    """
    new = {}
    for name, w in weights.items():
        g = grads[name]
        if kind == "sgd":
            step = np.multiply(g, lr)
        else:
            m = first.setdefault(name, np.zeros_like(w))
            v = second.setdefault(name, np.zeros_like(w))
            step = np.multiply(g, 1.0 - beta1)
            m *= beta1
            m += step
            np.multiply(g, 1.0 - beta2, out=step)
            step *= g
            v *= beta2
            v += step
            np.divide(m, 1.0 - beta1 ** t, out=step)
            step *= lr
            denom = np.divide(v, 1.0 - beta2 ** t)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
        new[name] = np.subtract(w, step, out=step)
    return new


def select_grad_dense(shape: tuple, picks: list, grads: list, first=None) -> np.ndarray:
    """Gradient reaching ``x`` from nodes ``select(x, axis, index)``, the dense way.

    ``picks[k]`` is node k's ``(axis, index)`` and ``grads[k]`` its gradient;
    a reverse sweep visits the nodes last to first. Each contribution is a
    whole zero array with one slice set, added to a zero buffer after
    ``first``, a contribution from a consumer the sweep visits earlier.
    """
    contributions = [] if first is None else [first]
    for (axis, index), g in reversed(list(zip(picks, grads))):
        gx = np.zeros(shape)
        slicer = [slice(None)] * len(shape)
        slicer[axis] = index
        gx[tuple(slicer)] = g.reshape(gx[tuple(slicer)].shape)
        contributions.append(gx)
    total = np.zeros(shape)
    for c in contributions:
        total += c
    return total


def embedding_grad_add_at(vocab: int, ids: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient reaching a [vocab x width] table from the rows ``table[ids]``:
    ``np.add.at`` of each gradient row into a zero table, in row order."""
    table = np.zeros((vocab, grad.shape[1]))
    np.add.at(table, np.asarray(ids, dtype=np.int64), grad)
    return table


def topological_orders_brute_force(n: int, edges: set[tuple[int, int]]):
    """All permutations of range(n) that respect every edge (u before v)."""
    import itertools

    valid = []
    for perm in itertools.permutations(range(n)):
        position = {node: i for i, node in enumerate(perm)}
        if all(position[u] < position[v] for u, v in edges):
            valid.append(perm)
    return valid


def finite_difference_grad(fn, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        bumped = values.copy()
        bumped.flat[i] += h
        up = fn(bumped)
        bumped.flat[i] -= 2 * h
        down = fn(bumped)
        grad.flat[i] = (up - down) / (2 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def lcg_uniform(rng) -> float:
    """One scalar draw of ``rng`` (an ``Lcg``): advance its state one MMIX
    step, then take the top 53 bits as a double in [0, 1)."""
    rng.state = (rng.state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
    return (rng.state >> 11) / float(1 << 53)


def lcg_uniform_loop(rng, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
    """``Lcg.uniform_array`` drawn one scalar step at a time."""
    out = np.empty(int(np.prod(shape)), dtype=np.float64)
    for i in range(out.size):
        out[i] = lo + (hi - lo) * lcg_uniform(rng)
    return out.reshape(shape)


def lcg_shuffle_loop(rng, items: list) -> None:
    """``Lcg.shuffle`` as the scalar Fisher-Yates loop, one draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = int(lcg_uniform(rng) * (i + 1)) % (i + 1)
        items[i], items[j] = items[j], items[i]


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64, the trailer digest of version-1 cache and weights files."""
    state = 0xCBF29CE484222325
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return state


def as_version_1(container: bytes) -> bytes:
    """A cache or weights file re-signed as version 1.

    Only the version field (bytes 4-5) and the FNV-1a trailer are rewritten.
    Version-1 weights had the current records; version-1 caches also had a
    dtype byte per record, which does not matter here because readers reject
    the version before parsing any record.
    """
    body = bytearray(container[:-8])
    body[4:6] = (1).to_bytes(2, "little")
    return bytes(body) + fnv1a_64(bytes(body)).to_bytes(8, "little")


def as_version_2(container: bytes) -> bytes:
    """A cache or weights file re-signed as its last BLAKE2b-64 version:
    weights version 2 (magic ``ECDW``) or cache version 3 (magic ``ECDC``).

    Those versions had the current records; only the version field (bytes
    4-5) and the trailer, BLAKE2b-64 of the body read little-endian, are
    rewritten.
    """
    body = bytearray(container[:-8])
    body[4:6] = {b"ECDW": 2, b"ECDC": 3}[bytes(body[:4])].to_bytes(2, "little")
    return bytes(body) + hashlib.blake2b(bytes(body), digest_size=8).digest()


def as_cache_version_4(container: bytes) -> bytes:
    """A cache file re-signed as format version 4, which had the current
    layout and digest but held a numerical column's array normalized. Only
    the version field (bytes 4-5) and the SHA-256-64 trailer are rewritten."""
    body = bytearray(container[:-8])
    body[4:6] = (4).to_bytes(2, "little")
    return bytes(body) + hashlib.sha256(bytes(body)).digest()[:8]


def as_cache_version_5(container: bytes) -> bytes:
    """A cache file re-written as format version 5, which had the current
    records and digest but no metadata: its header was the fingerprint
    alone. The metadata (its u32 length and its JSON, after the fingerprint)
    is cut out, and the version field and the SHA-256-64 trailer rewritten."""
    size = struct.unpack_from("<I", container, 14)[0]
    body = container[:4] + (5).to_bytes(2, "little") + container[6:14] + container[18 + size : -8]
    return body + hashlib.sha256(body).digest()[:8]


def unchecked_fingerprint(dataset_bytes: bytes, definition, seed: int) -> int:
    """The cache fingerprint of a run before preprocessing checked that
    float32 holds its values: the same recipe without its ``fits`` entry,
    digested as ``cache.digest64`` does (the first 8 bytes of SHA-256, read
    little-endian)."""
    recipe = {
        "features": [{"name": s.name, "type": s.type, "preprocessing": s.preprocessing}
                     for s in list(definition.input_features) + list(definition.output_features)],
        "split": definition.training.split,
        "split_column": definition.training.split_column,
        "seed": seed,
    }
    digest = hashlib.sha256(dataset_bytes + json.dumps(recipe, sort_keys=True).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")


# ---------------------------------------------------------------------------
# string-space scoring: the reference for ``features.compute_metric``
# ---------------------------------------------------------------------------

BINARY_TRUE = ("true", "1", "t", "yes")


def string_truths(cells: list[str], ftype: str, lowercase: bool = False,
                  max_len: int | None = None) -> list:
    """Target cells as the strings scoring once compared: a binary cell as
    ``true`` or ``false``, a category cell as itself, a set cell as its
    tokens, a sequence cell as its first ``max_len`` tokens. No cell may be
    missing."""
    truths = []
    for cell in cells:
        if ftype == "binary":
            truths.append("true" if cell.strip().lower() in BINARY_TRUE else "false")
            continue
        cell = cell.lower() if lowercase else cell
        if ftype == "category":
            truths.append(cell)
        elif ftype == "set":
            truths.append(cell.split())
        else:
            truths.append(cell.split()[:max_len])
    return truths


def string_predictions(preds: np.ndarray, ftype: str, id2token: list[str],
                       lengths=None) -> list:
    """Prediction arrays as strings, one entry at a time: a binary ``true``
    at >= 0.5, a category's most probable token (the lowest id on ties), a
    set's tokens at >= 0.5, and a tagger row's most probable tag at each of
    its first ``lengths[i]`` positions, trailing ``<PAD>`` tags dropped."""

    def best(row):
        top = 0
        for j in range(len(row)):
            if row[j] > row[top]:
                top = j
        return top

    rows = []
    for i, row in enumerate(preds):
        if ftype == "binary":
            rows.append("true" if row[0] >= 0.5 else "false")
        elif ftype == "category":
            rows.append(id2token[best(row)])
        elif ftype == "set":
            rows.append([id2token[j] for j in range(len(row)) if row[j] >= 0.5])
        else:
            tags = [id2token[best(row[t])] for t in range(lengths[i])]
            while tags and tags[-1] == "<PAD>":
                tags.pop()
            rows.append(tags)
    return rows


def tag_rows_one_token_at_a_time(tags: np.ndarray, lengths: np.ndarray,
                                 id2token: list[str]) -> list[list[str]]:
    """A tagger's back-to-back tag ids as token rows, one row and one token
    at a time: each row's ids mapped, its trailing ``<PAD>`` tags popped."""
    pad = id2token.index("<PAD>")
    ids_all = tags.tolist()
    ends = np.cumsum(lengths).tolist()
    rows = []
    for start, end in zip([0] + ends, ends):
        ids = ids_all[start:end]
        while ids and ids[-1] == pad:
            ids.pop()
        rows.append([id2token[i] for i in ids])
    return rows


def numerical_values(cells: list[str], strategy: str = "fill_const",
                     mean: float = 0.0) -> list[float]:
    """A numerical column's raw values, one cell at a time: a missing cell
    is 0 under ``fill_const`` and the training ``mean`` under ``fill_mean``;
    any other cell is the float its text spells. Nothing is normalized."""
    values = []
    for cell in cells:
        if cell == "":
            values.append(mean if strategy == "fill_mean" else 0.0)
        else:
            values.append(float(cell))
    return values


def set_multi_hot_rows(token_rows: list[list[str]], id2token: list[str]) -> np.ndarray:
    """A set column's multi-hot, one row and one token at a time: a token
    outside the vocabulary sets ``<UNK>``'s column, a repeated one sets its
    column once, and a row without tokens stays all zeros."""
    hot = np.zeros((len(token_rows), len(id2token)))
    for i, row in enumerate(token_rows):
        for tok in row:
            hot[i, id2token.index(tok) if tok in id2token else id2token.index("<UNK>")] = 1.0
    return hot


def vocab_id_rows(column: list[str], ftype: str, id2token: list[str], width: int,
                  tokenizer: str = "space", lowercase: bool = False) -> np.ndarray:
    """A category, sequence or text column's ids, one token and one row at a
    time: a missing category cell is ``<UNK>`` and a missing sequence cell
    has no tokens; each token is looked up alone (``<UNK>``'s id when outside
    the vocabulary), and a sequence row's ids are written over a ``<PAD>``
    row of ``width`` ids, cut to fit."""
    token2id = {tok: i for i, tok in enumerate(id2token)}

    def lookup(tok):
        return token2id[tok] if tok in token2id else token2id["<UNK>"]

    rows = []
    for cell in column:
        if cell == "":
            cell = "<UNK>" if ftype == "category" else ""
        cell = cell.lower() if lowercase else cell
        if ftype == "category":
            tokens = [cell]
        else:
            tokens = cell.split() if tokenizer == "space" else list(cell)
        rows.append([lookup(tok) for tok in tokens])
    if ftype == "category":
        return np.array(rows, dtype=np.float64).reshape(-1, 1)
    padded = np.full((len(rows), width), float(token2id["<PAD>"]))
    for i, row in enumerate(rows):
        padded[i, : min(len(row), width)] = row[:width]
    return padded


def string_metric(kind: str, truths: list, preds: list) -> float:
    """A metric over string truths and predictions; ``cross_entropy`` takes
    class ids and probability rows instead."""
    if kind == "accuracy":
        return sum(1.0 for t, p in zip(truths, preds) if t == p) / len(truths)
    if kind == "cross_entropy":
        total = 0.0
        for t, probs in zip(truths, preds):
            total += -math.log(max(float(probs[int(t)]), 1e-12))
        return total / len(truths)
    if kind == "token_accuracy":
        correct = total = 0
        for truth_row, pred_row in zip(truths, preds):
            total += len(truth_row)
            for i, tok in enumerate(truth_row):
                if i < len(pred_row) and pred_row[i] == tok:
                    correct += 1
        return correct / total if total else 0.0
    if kind == "jaccard":
        score = 0.0
        for truth_row, pred_row in zip(truths, preds):
            ts, ps = set(truth_row), set(pred_row)
            union = ts | ps
            score += (len(ts & ps) / len(union)) if union else 1.0
        return score / len(truths)
    raise ValueError(f"no string-space metric {kind!r}")


# ---------------------------------------------------------------------------
# the definition-language parser as it stood before one scanner tracked quote
# state: copied unchanged but for the name of its entry point, yamlish_loads
# ---------------------------------------------------------------------------

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


def yamlish_loads(text: str):
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
