"""Shared test infrastructure: an independent similarity reference, a
reference step splitter, a reference question reader and a scriptable
HTTP completion stub.

The similarity reference is a from-scratch dynamic-programming
implementation of the recursive longest-matching-block ratio, kept free
of difflib so the production function is checked against genuinely
independent arithmetic.

The splitter reference keeps, verbatim, the character-at-a-time
math-span scanner, the per-candidate break checks with the three regexes
they used, and the carry-based fragment merge that `stepfim.decompose`
replaced with a `str.find` walk that masks math spans, regex searches of
the masked text and a single merge pass. `reference_decompose` runs
`decompose` with them, so the two passes are checked against the walking
scanner and break finder on masked spans, step starts, chains and error
messages.

The question reader reference keeps, verbatim, the recursive-descent
parser and the recursive post-order walk that `stepfim.synth` replaced
with one left-to-right loop over a stack. `reference_fine_steps` reads a
question with them, so the loop is checked against the tree on steps and
error messages.

The sampler reference keeps, verbatim, the per-round strings of the
`sample_fim` that joined each round's prefix, suffix and serialized text,
before samples came to store only their draw. Like `sample_fim`, it first
refuses a chain with a special token, naming the question or step N, but
with its own loop over the fields, so the token rule is not checked against
itself. `reference_sample_fim` returns each sample's `to_dict()`, so the
stored draw is checked against the strings it stands for, and on error
types and messages.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from unittest import mock

import numpy as np

import stepfim.decompose as decompose_module
from stepfim.decompose import (
    ABBREVIATIONS,
    MARKER_WORDS,
    STEP_SEPARATOR,
    _PUNCT_ONLY_RE,
    StepChain,
    UnbalancedMath,
    _word_before,
)
from stepfim.fim import SPECIAL_TOKENS, SpecialTokenCollision, draw_key, format_psm
from stepfim.synth import (
    ALLOWED_OPERATORS,
    ANSWER_TEMPLATE,
    STEP_TEMPLATE,
    UnparsableQuestion,
    _apply,
    _QUESTION_RE,
    _TOKEN_RE,
)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _longest_block(
    a_codes: np.ndarray, b_codes: np.ndarray, alo: int, ahi: int, blo: int, bhi: int
) -> tuple[int, int, int]:
    """Longest common block within the window as (size, a_start, b_start).

    Ties resolve to the smallest a_start, then the smallest b_start.
    Row i of the DP holds run lengths of common substrings ending at
    a[i]; scanning rows in order makes the earliest-start winner the
    first one found at any given size.
    """
    m = bhi - blo
    best_size, best_i, best_j = 0, alo, blo
    if m <= 0:
        return best_size, best_i, best_j
    window_b = b_codes[blo:bhi]
    prev = np.zeros(m, dtype=np.int64)
    for i in range(alo, ahi):
        eq = window_b == a_codes[i]
        cur = np.zeros(m, dtype=np.int64)
        cur[0] = 1 if eq[0] else 0
        if m > 1:
            cur[1:] = np.where(eq[1:], prev[:-1] + 1, 0)
        size = int(cur.max(initial=0))
        if size > best_size:
            j_end = int(np.argmax(cur == size))
            best_size = size
            best_i = i - size + 1
            best_j = blo + j_end - size + 1
        prev = cur
    return best_size, best_i, best_j


def _total_matched(
    a_codes: np.ndarray, b_codes: np.ndarray, alo: int, ahi: int, blo: int, bhi: int
) -> int:
    size, i, j = _longest_block(a_codes, b_codes, alo, ahi, blo, bhi)
    if size == 0:
        return 0
    left = _total_matched(a_codes, b_codes, alo, i, blo, j)
    right = _total_matched(a_codes, b_codes, i + size, ahi, j + size, bhi)
    return size + left + right


def reference_ratio(a: str, b: str) -> float:
    """Independent Ratcliff/Obershelp ratio over normalized characters."""
    a_norm = _normalize_ws(a)
    b_norm = _normalize_ws(b)
    if not a_norm and not b_norm:
        return 1.0
    a_codes = np.array([ord(c) for c in a_norm], dtype=np.int64)
    b_codes = np.array([ord(c) for c in b_norm], dtype=np.int64)
    matched = _total_matched(a_codes, b_codes, 0, len(a_codes), 0, len(b_codes))
    return 2.0 * matched / (len(a_codes) + len(b_codes))


def _scan_math_spans(text: str) -> list[tuple[int, int]]:
    """Return [start, end) spans of protected math-mode content.

    Protected delimiters: $...$, $$...$$, \\(...\\), \\[...\\] and
    \\begin{ENV}...\\end{ENV} (nesting allowed). Raises UnbalancedMath
    when an opener is never closed.
    """
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "$":  # escaped dollar, not a delimiter
                i += 2
                continue
            if nxt == "(":
                end = text.find("\\)", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed \\( at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            if nxt == "[":
                end = text.find("\\]", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed \\[ at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            if text.startswith("\\begin{", i):
                j = i
                depth = 0
                while j < n:
                    if text.startswith("\\begin{", j):
                        depth += 1
                        j = text.index("}", j) + 1 if "}" in text[j:] else n
                    elif text.startswith("\\end{", j):
                        depth -= 1
                        close = text.find("}", j)
                        j = close + 1 if close >= 0 else n
                        if depth == 0:
                            break
                    else:
                        j += 1
                if depth != 0:
                    raise UnbalancedMath(f"unclosed \\begin at offset {i}")
                spans.append((i, j))
                i = j
                continue
            i += 2
            continue
        if ch == "$":
            if text.startswith("$$", i):
                end = text.find("$$", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed $$ at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            end = i + 1
            while end < n:
                if text[end] == "$" and text[end - 1] != "\\":
                    break
                end += 1
            if end >= n:
                raise UnbalancedMath(f"unclosed $ at offset {i}")
            spans.append((i, end + 1))
            i = end + 1
            continue
        i += 1
    return spans


_STEP_MARKER_RE = re.compile(r"Step \d+[:.]")
_SENTENCE_END_RE = re.compile(r"[.!?]")
_WORD_AFTER_RE = re.compile(r"[A-Za-z]+")


def _in_any_span(pos: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= pos < end for start, end in spans)


def _find_breaks(text: str, spans: list[tuple[int, int]]) -> list[int]:
    """Positions in `text` where a new step starts.

    Each break position is preceded by exactly one space (the text is
    whitespace-normalized), so slicing at breaks and rstripping loses
    only that separator space.
    """
    breaks: set[int] = set()

    for match in _SENTENCE_END_RE.finditer(text):
        p = match.start()
        if _in_any_span(p, spans):
            continue
        if p + 2 >= len(text) or text[p + 1] != " ":
            continue
        # decimals like 3.5 carry no space after the period, so they never
        # reach this point; abbreviations do and are skipped explicitly
        if text[p] == "." and _word_before(text, p) in ABBREVIATIONS:
            continue
        nxt = text[p + 2]
        word = _WORD_AFTER_RE.match(text, p + 2)
        is_marker = word is not None and word.group(0).lower() in MARKER_WORDS
        if nxt.isupper() or is_marker:
            breaks.add(p + 2)

    for match in _STEP_MARKER_RE.finditer(text):
        q = match.start()
        if q == 0 or _in_any_span(q, spans):
            continue
        if text[q - 1] == " ":
            breaks.add(q)

    return sorted(breaks)


def _merge_fragments(segments: list[str], min_chars: int) -> list[str]:
    """Fold too-short or punctuation-only segments into their neighbor.

    Merging concatenates with a single space, which restores exactly the
    separator dropped at the split, so round-tripping stays byte-exact.
    """
    merged: list[str] = []
    carry = ""  # leading fragment waiting for a segment to attach to
    for seg in segments:
        if carry:
            seg = carry + " " + seg
            carry = ""
        too_small = len(seg) < min_chars or _PUNCT_ONLY_RE.fullmatch(seg) is not None
        if too_small:
            if merged:
                merged[-1] = merged[-1] + " " + seg
            else:
                carry = seg
        else:
            merged.append(seg)
    if carry:
        if merged:
            merged[-1] = merged[-1] + " " + carry
        else:
            merged.append(carry)
    return merged


def reference_decompose(solution, config=None) -> StepChain:
    """`decompose` with the reference scanner and break finder swapped in."""
    with mock.patch.multiple(
        decompose_module,
        _step_starts=lambda text: _find_breaks(text, _scan_math_spans(text)),
        _merge_fragments=_merge_fragments,
    ):
        return decompose_module.decompose(solution, config)


class _Parser:
    """Recursive-descent parser for fully parenthesized integer expressions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        tok = self._peek()
        if tok is None:
            raise UnparsableQuestion("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self):
        left = self.parse_primary()
        if self._peek() in ALLOWED_OPERATORS:
            op = self._take()
            right = self.parse_primary()
            return (left, op, right)
        return left

    def parse_primary(self):
        tok = self._take()
        if tok == "(":
            node = self.parse_expr()
            if self._take() != ")":
                raise UnparsableQuestion("expected closing paren")
            return node
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        raise UnparsableQuestion(f"unexpected token {tok!r}")


def _parse_expression(expr: str):
    tokens = _TOKEN_RE.findall(expr)
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise UnparsableQuestion(f"cannot tokenize {expr!r}")
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.pos != len(tokens):
        raise UnparsableQuestion("trailing tokens in expression")
    return node


def _emit_steps(node, steps: list[str]) -> int:
    """Evaluate post-order, appending one rendered step per operation."""
    if isinstance(node, int):
        return node
    left, op, right = node
    a = _emit_steps(left, steps)
    b = _emit_steps(right, steps)
    c = _apply(a, op, b)
    steps.append(STEP_TEMPLATE.format(a=a, op=op, b=b, c=c))
    return c


def reference_fine_steps(question: str) -> list[str]:
    """`synth.fine_steps_for_question` as a parse tree walked by recursion."""
    match = _QUESTION_RE.match(question.strip())
    if match is None:
        raise UnparsableQuestion(f"not a synthetic question: {question!r}")
    steps: list[str] = []
    value = _emit_steps(_parse_expression(match.group(1)), steps)
    steps.append(ANSWER_TEMPLATE.format(v=value))
    return steps


def reference_sample_fim(chain, question, config, source_id=""):
    """`config.rounds` FIM samples of one chain, as `to_dict()` rows."""
    texts = chain.texts
    for what, text in [("question", question), *((f"step {n}", t) for n, t in enumerate(texts))]:
        if any(token in text for token in SPECIAL_TOKENS):
            raise SpecialTokenCollision(f"{what} contains a FIM special token")
    n = len(texts)
    samples = []
    for r in range(config.rounds):
        rng = random.Random(draw_key(config.seed, source_id, r))
        i = rng.randrange(n)
        prefix = STEP_SEPARATOR.join(texts[:i])
        middle = texts[i]
        suffix = STEP_SEPARATOR.join(texts[i + 1 :])
        psm_text, start, end = format_psm(question, prefix, suffix, middle)
        samples.append(
            {
                "source_id": source_id,
                "round": r,
                "middle_index": i,
                "prefix": prefix,
                "suffix": suffix,
                "middle": middle,
                "psm_text": psm_text,
                "loss_char_start": start,
                "loss_char_end": end,
            }
        )
    return samples


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API name)
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client shut its socket mid-request: nothing to answer
            return
        try:
            body = json.loads(raw)
        except json.JSONDecodeError:
            body = raw.decode("utf-8", "replace")
        with self.server.lock:
            index = len(self.server.seen)
            self.server.seen.append({
                "path": self.path, "body": body, "headers": dict(self.headers),
                "client_address": self.client_address,
            })
        script = self.server.script
        status, payload = script(body) if callable(script) else script[min(index, len(script) - 1)]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output clean
        pass


class _KeepAliveStubHandler(_StubHandler):
    """HTTP/1.1: a connection serves requests until the client closes it."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.open.add(self.connection)

    def finish(self):
        with self.server.lock:
            self.server.open.discard(self.connection)
        super().finish()


class _StubServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        """Stay quiet about a client that hung up before its reply; report any other error."""
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class StubCompletionServer:
    """Local HTTP server that replays a scripted list of (status, payload).

    The last script entry repeats for any further requests. A script that
    is a function instead answers each request with what it returns for
    the parsed body, whatever order requests arrive in. `seen` holds
    one entry per request whose body arrived whole: path, parsed body,
    headers and the client's (host, port), which names the connection the
    request came on. By default every response closes its connection
    (HTTP/1.0); with `keep_alive=True` connections stay open (HTTP/1.1,
    TCP_NODELAY) until the client closes them or `drop_connections` does,
    and `open_connections` counts them.
    """

    def __init__(self, script: list[tuple[int, object]] | Callable[[object], tuple[int, object]],
                 keep_alive: bool = False):
        handler = _KeepAliveStubHandler if keep_alive else _StubHandler
        self._server = _StubServer(("127.0.0.1", 0), handler)
        self._server.script = script
        self._server.seen = []
        self._server.open = set()
        self._server.lock = threading.Lock()
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self) -> "StubCompletionServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self.drop_connections()
        self._server.server_close()
        self._thread.join(timeout=5)

    def drop_connections(self) -> None:
        """Shut every open keep-alive connection, as a server drops an idle one.

        The responses on it promised to keep it open (no `Connection: close`).
        """
        with self._server.lock:
            for conn in self._server.open:
                with contextlib.suppress(OSError):  # the client may have closed it first
                    conn.shutdown(socket.SHUT_RDWR)

    @property
    def open_connections(self) -> int:
        """The keep-alive connections that a handler serves: a client's close is counted
        once the handler has read the end of the stream, a moment later."""
        with self._server.lock:
            return len(self._server.open)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/completions"

    @property
    def seen(self) -> list[dict]:
        return self._server.seen
