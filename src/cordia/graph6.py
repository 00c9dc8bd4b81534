"""Bit-exact graph6 codec for graphs on 1..16 vertices (short form only).

The byte layout is the standard one: chr(n + 63), then the upper triangle of
the adjacency matrix read column by column, packed six bits per byte, each
byte offset by 63.  Trailing pad bits must be zero.  Both directions read
one cached order of the row-major edge slots per n, ``_stream_slots``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GraphFormatError
from .graphs import MAX_VERTICES, Graph, edge_index, edge_slots

_HEADER = ">>graph6<<"


@lru_cache(maxsize=None)
def _stream_slots(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(slot of each stream position, stream position of each slot from the
    highest slot down): the stream lists the pairs (i, j), i < j, column by
    column, while the slots run row by row."""
    order = tuple(edge_index(n, i, j) for j in range(1, n) for i in range(j))
    return order, tuple(sorted(range(len(order)), key=order.__getitem__, reverse=True))


def to_graph6(g: Graph) -> str:
    """The short-form graph6 string of g, without the header."""
    order, _ = _stream_slots(g.n)
    slots = format(g.edges, f"0{len(order)}b")[::-1]  # character k is slot k
    stream = "".join([slots[k] for k in order]) + "0" * (-len(order) % 6)
    data = [chr(int(stream[at:at + 6], 2) + 63) for at in range(0, len(stream), 6)]
    return chr(g.n + 63) + "".join(data)


def parse_graph6(text: str) -> Graph:
    """The graph of one graph6 string, with or without the >>graph6<< header;
    anything outside the short form on 1..16 vertices is a GraphFormatError."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"byte {ch!r} outside the graph6 alphabet")
    head = ord(s[0]) - 63
    if head == 63:
        raise GraphFormatError("long-form vertex counts are not supported")
    n = head
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
    nbits = edge_slots(n)
    need = (nbits + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise GraphFormatError(f"expected {need} data bytes for n={n}, got {len(data)}")
    stream = "".join([format(ord(ch) - 63, "06b") for ch in data])
    if "1" in stream[nbits:]:
        raise GraphFormatError("nonzero padding bits")
    _, where = _stream_slots(n)
    return Graph(n, int("".join([stream[pos] for pos in where]) or "0", 2))
