"""Graph serialization: standard graph6 (short form, n <= 62), an edge-list
JSON schema ({"n": int, "edges": [[u, v], ...]}), and DOT export.

graph6 layout: one byte n+63, then the upper-triangle adjacency bits in
column-major order (x_01, x_02, x_12, x_03, ...), packed big-endian six bits
per byte with +63 offset and zero padding.
"""

from __future__ import annotations

import json

from .errors import ParseError, Unsupported
from .graph import Graph

# admits W(3,16)'s 8,738 vertices, but no short input asking for gigabytes
_EDGE_JSON_MAX_N = 1 << 16


def graph6_encode(G: Graph) -> bytes:
    if G.n > 62:
        raise Unsupported("short-form graph6 supports n <= 62")
    out = [G.n + 63]
    acc = 0
    nbits = 0
    for j in range(1, G.n):
        col = G.bits[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(acc + 63)
    return bytes(out)


def graph6_decode(data: bytes) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError(f"graph6 text is not ASCII: {exc}") from exc
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise ParseError("empty graph6 input")
    header = data[0]
    if header == 126:
        raise Unsupported("long-form graph6 (n > 62) is not supported")
    if not 63 <= header <= 125:
        raise ParseError(f"bad graph6 header byte {header}")
    n = header - 63
    body = data[1:]
    total_bits = n * (n - 1) // 2
    need = (total_bits + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    bits = []
    for b in body:
        if not 63 <= b <= 126:
            raise ParseError(f"bad graph6 body byte {b}")
        v = b - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    for pad in bits[total_bits:]:
        if pad:
            raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def to_edge_json(G: Graph) -> str:
    return json.dumps({"n": G.n, "edges": [[u, v] for u, v in G.edges()]})


def from_edge_json(text: str | bytes) -> Graph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and over-long integers too
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('edge-list JSON needs keys "n" and "edges"')
    try:
        n = int(obj["n"])
        if n > _EDGE_JSON_MAX_N:
            raise Unsupported(f"edge-list JSON needs n <= {_EDGE_JSON_MAX_N}")
        return Graph(n, [(int(u), int(v)) for u, v in obj["edges"]])
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinite float such as 1e400
        raise ParseError(f"bad edge list: {exc}") from exc


def to_dot(G: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(G.n) if not G.adj[v])
    lines.extend(f"  {u} -- {v};" for u, v in G.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing graph6 vs edge-list JSON."""
    with open(path, "rb") as fh:
        raw = fh.read()
    stripped = raw.lstrip()
    if stripped.startswith(b"{"):
        return from_edge_json(raw)
    return graph6_decode(raw)
