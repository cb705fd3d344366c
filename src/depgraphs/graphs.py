"""Bitset graphs and the exact combinatorial primitives built on them.

Vertices are the integers 0..n-1.  Adjacency is one Python int per vertex,
with bit v of row u set iff {u,v} is an edge.  Unordered pairs carry a
colexicographic index: {u,v} with u < v maps to v*(v-1)//2 + u, so the
pairs on the first k vertices occupy indices 0..C(k,2)-1 and the index of
a pair never depends on n.

The batch kernels at the end take many graphs at once, as one block: a
(T, n, W) array of row words, W = ceil(n / 64), whose word i of graph t's
row v holds bits 64i .. 64i + 63 of that row.  Its words are of
batch_dtype(n), the narrowest unsigned dtype that holds a row up to 64
vertices (W = 1), and uint64 beyond.  Only the kernels read W: the
connectivity and clique kernels run a loop over one word per row when
W = 1.  presence_rows forms one graph's rows from its packed colex
presence bitmap, with no edge index: the bitmap's bits tri(v) .. tri(v) +
v - 1 are row v's bits below v.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

import numpy as np


def num_edges(n: int) -> int:
    """Number of potential edges on n vertices."""
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Canonical index of the unordered pair {u,v}; order-insensitive."""
    if u == v:
        raise ValueError(f"self-pair ({u},{u}) has no edge index")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertices ({u},{v}) out of range for n={n}")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def edge_endpoints(index: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index: the pair (u, v) with u < v."""
    if not (0 <= index < num_edges(n)):
        raise ValueError(f"edge index {index} out of range for n={n}")
    v = int((1 + (1 + 8 * index) ** 0.5) / 2)
    # guard against float rounding at the triangular-number boundaries
    while v * (v - 1) // 2 > index:
        v -= 1
    while (v + 1) * v // 2 <= index:
        v += 1
    return index - v * (v - 1) // 2, v


@lru_cache(maxsize=64)
def _triangular(n: int) -> np.ndarray:
    """The n + 1 numbers v(v-1)/2, v = 0..n, where row v's edges start."""
    tri = np.arange(n + 1, dtype=np.int64)
    tri = tri * (tri - 1) // 2
    tri.flags.writeable = False
    return tri


def _endpoints(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays u and v with u < v, the endpoints of each colex edge index."""
    tri = _triangular(n)
    v = np.searchsorted(tri, edges, side="right") - 1
    return edges - tri[v], v


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    """Bitmask of a vertex subset, validating range."""
    m = 0
    for v in map(operator.index, vertices):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


class Graph:
    """Immutable simple undirected graph on labeled vertices."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        if rows is None:
            self.rows = (0,) * n
        else:
            self.rows = tuple(rows)
            if len(self.rows) != n:
                raise ValueError("adjacency must have one row per vertex")
            self._validate()

    def _validate(self) -> None:
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits beyond vertex {self.n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(self.rows):
            for v in iter_bits(row):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    @classmethod
    def _from_rows_unchecked(cls, n: int, rows) -> "Graph":
        # trusted fast path for samplers that build symmetric rows by construction
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, (full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_rows_unchecked(n, rows)

    @classmethod
    def from_edge_indices(cls, n: int, indices: Iterable[int]) -> "Graph":
        rows = [0] * n
        for i in indices:
            u, v = edge_endpoints(operator.index(i), n)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_rows_unchecked(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending by edge index."""
        for v in range(self.n):
            row = self.rows[v] & ((1 << v) - 1)
            for u in iter_bits(row):
                yield u, v

    def edge_indices(self) -> Iterator[int]:
        for u, v in self.edges():
            yield edge_index(u, v, self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def count_edges_between(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    """e(A,B): edges with one endpoint in A and one in B.

    Edges with both endpoints in the intersection contribute twice, the
    convention under which e(V,V) = 2|E|.
    """
    am = vertex_mask(a, g.n)
    bm = vertex_mask(b, g.n)
    return sum((g.rows[u] & bm).bit_count() for u in iter_bits(am))


def degree_sequence(g: Graph) -> list[int]:
    """Degree of every vertex, in vertex order."""
    return [r.bit_count() for r in g.rows]


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if g.n == 1:
        return True
    visited = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= g.rows[v]
        frontier = reach & ~visited
        visited |= frontier
    return visited == (1 << g.n) - 1


def clique_number(g: Graph) -> int:
    """Exact maximum clique size.

    Branch and bound with a greedy-coloring bound; intended for n up to
    roughly 60.  No approximate fallback: oversized inputs just take long.
    """
    rows = g.rows
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        # color classes of the candidate set; a clique meets each class
        # once, so a vertex colored below best - size + 1 cannot lead past
        # best: its class is neither recorded nor branched on, and it stays
        # in cand (Tomita et al., WALCOM 2010)
        least = best - size + 1
        classes: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            members = 0
            while avail:
                low = avail & -avail
                members |= low
                avail &= ~(rows[low.bit_length() - 1] | low)
            uncolored ^= members
            if color >= least:
                classes.append(members)
        for members in reversed(classes):
            while members:
                if size + color <= best:
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                expand(size + 1, cand & rows[v])
                cand &= ~(1 << v)
            color -= 1

    expand(0, (1 << g.n) - 1)
    return best


class SubgraphPattern:
    """A small target graph H together with its derived quantities."""

    __slots__ = ("graph", "name", "_plan")

    def __init__(self, graph: Graph, name: str | None = None):
        self.graph = graph
        self.name = name
        # contains_subgraph's plan, made on first use; threads that race
        # here compute equal plans, so either one may win
        self._plan = None

    @property
    def vertex_count(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count()

    @classmethod
    def clique(cls, k: int) -> "SubgraphPattern":
        return cls(Graph.complete(k), name=f"k{k}")

    @classmethod
    def cycle(cls, k: int) -> "SubgraphPattern":
        if k < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]), name=f"c{k}")

    @classmethod
    def path(cls, edges: int) -> "SubgraphPattern":
        """Path with the given number of edges."""
        if edges < 1:
            raise ValueError("path needs at least one edge")
        return cls(Graph.from_edges(edges + 1, [(i, i + 1) for i in range(edges)]),
                   name=f"path{edges}")

    @classmethod
    def single_edge(cls) -> "SubgraphPattern":
        return cls(Graph.from_edges(2, [(0, 1)]), name="edge")

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgraphPattern) and self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"SubgraphPattern({self.name or self.graph!r})"


def named_pattern(name: str) -> SubgraphPattern:
    """Small pattern library: k2..k8, c3..c8, path1..path7, edge."""
    key = name.strip().lower()
    if key == "edge":
        return SubgraphPattern.single_edge()
    if key.startswith("k") and key[1:].isdigit():
        return SubgraphPattern.clique(int(key[1:]))
    if key.startswith("c") and key[1:].isdigit():
        return SubgraphPattern.cycle(int(key[1:]))
    if key.startswith("path") and key[4:].isdigit():
        return SubgraphPattern.path(int(key[4:]))
    raise ValueError(f"unknown pattern {name!r} (try k3, c5, path2, edge)")


def _embedding_order(h: Graph) -> list[int]:
    # most-constrained first: start at max degree, then prefer vertices with
    # many already-placed neighbors
    placed: list[int] = []
    placed_mask = 0
    degs = degree_sequence(h)
    while len(placed) < h.n:
        best_v, best_key = -1, (-1, -1)
        for v in range(h.n):
            if (placed_mask >> v) & 1:
                continue
            key = ((h.rows[v] & placed_mask).bit_count(), degs[v])
            if key > best_key:
                best_v, best_key = v, key
        placed.append(best_v)
        placed_mask |= 1 << best_v
    return placed


class _EmbeddingPlan(NamedTuple):
    """Pattern vertices in placement order, as the matcher needs them."""
    back_edges: list[list[int]]  # earlier-placed neighbors, as positions in the order
    degrees: list[int]           # pattern degree of each vertex in the order
    edge_count: int


def _embedding_plan(h: Graph) -> _EmbeddingPlan:
    order = _embedding_order(h)
    back_edges = [[j for j in range(i) if h.has_edge(v, order[j])]
                  for i, v in enumerate(order)]
    return _EmbeddingPlan(back_edges, [h.degree(v) for v in order], h.edge_count())


def contains_subgraph(g: Graph, pattern: SubgraphPattern) -> bool:
    """True iff g has a (not necessarily induced) copy of the pattern."""
    k = pattern.graph.n
    if k > g.n:
        return False
    plan = pattern._plan
    if plan is None:
        plan = pattern._plan = _embedding_plan(pattern.graph)
    if plan.edge_count > g.edge_count():
        return False
    back_edges = plan.back_edges
    h_degs = plan.degrees
    g_degs = degree_sequence(g)
    full = (1 << g.n) - 1
    images = [0] * k

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        cands = full & ~used
        for j in back_edges[i]:
            cands &= g.rows[images[j]]
        need = h_degs[i]
        for w in iter_bits(cands):
            if g_degs[w] < need:
                continue
            images[i] = w
            if place(i + 1, used | (1 << w)):
                return True
        return False

    return place(0, 0)


def _max_matching(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """Matching number of the graph on n vertices with these edges, by a
    memoized search over vertex subsets."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask not in memo:
            m = mask
            v = -1
            # first vertex in mask with a neighbor also in mask
            while m:
                c = (m & -m).bit_length() - 1
                if adj[c] & mask:
                    v = c
                    break
                m ^= m & -m
            if v < 0:
                memo[mask] = 0
            else:
                best = rec(mask & ~(1 << v))  # leave v unmatched
                for w in iter_bits(adj[v] & mask):
                    best = max(best, 1 + rec(mask & ~((1 << v) | (1 << w))))
                memo[mask] = best
        return memo[mask]

    return rec((1 << n) - 1)


def support_vertices(g: Graph) -> int:
    """Bitmask of vertices with at least one incident edge."""
    m = 0
    for v, row in enumerate(g.rows):
        if row:
            m |= 1 << v
    return m


def edge_cover_number(pattern: SubgraphPattern) -> int:
    """Minimum number of edges whose endpoints cover every non-isolated vertex.

    Uses the Gallai identity |V| - (maximum matching); every matching edge
    covers two vertices and each leftover vertex needs one more edge.

    Phi(H) no longer calls this: bounds._phi_profile forms f(Gamma) for
    every edge subset at once by a matching-number recurrence.  It stays
    public as the one-pattern reference that recurrence is checked
    against, and the acceptance tests check it against brute force.
    """
    h = pattern.graph
    edges = tuple(h.edges())
    if not edges:
        raise ValueError("edge cover undefined for an edgeless pattern")
    support = support_vertices(h)
    return support.bit_count() - _max_matching(h.n, edges)


class DensityResult(NamedTuple):
    value: Fraction
    witness: tuple[tuple[int, int], ...]


def max_subgraph_density(pattern: SubgraphPattern) -> DensityResult:
    """m(H): exact max of |E(G')|/|V(G')| over nonempty edge subsets G' of H.

    The maximum over edge subsets is always attained by taking every edge
    inside some vertex subset, so vertex subsets (2^|V|) are enumerated
    instead of edge subsets (2^|E|).  The achieving edge set is returned.
    """
    h = pattern.graph
    if h.edge_count() == 0:
        raise ValueError("density undefined for an edgeless pattern")
    best: Fraction | None = None
    best_edges: tuple[tuple[int, int], ...] = ()
    verts = list(iter_bits(support_vertices(h)))
    for r in range(2, len(verts) + 1):
        for subset in combinations(verts, r):
            smask = 0
            for v in subset:
                smask |= 1 << v
            inside = [(u, v) for u, v in h.edges()
                      if (smask >> u) & 1 and (smask >> v) & 1]
            if not inside:
                continue
            endpoints = 0
            for u, v in inside:
                endpoints |= (1 << u) | (1 << v)
            dens = Fraction(len(inside), endpoints.bit_count())
            if best is None or dens > best:
                best = dens
                best_edges = tuple(inside)
    assert best is not None
    return DensityResult(best, best_edges)


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format ("n <count>" header)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list text format; inverse of to_edge_list.

    Lines starting with "#" are comments (provenance headers) and skipped.
    """
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("n "):
        raise ValueError('edge-list text must start with a "n <count>" header')
    n = int(lines[0].split()[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)


# -- batch kernels over blocks of (T, n, W) row words --------------------

# the most vertices whose rows take one word (W = 1); the sampler's packer
# and coin draw and the spans of per-trial seeds pick their algorithm by it
BATCH_MAX_N = 64

# the widest array a batched consumer forms per block, in bytes (batch_size)
BATCH_BYTES = 1 << 18


def batch_size(per_item: int) -> int:
    """Items per block: as many as keep an array of per_item bytes per
    item within BATCH_BYTES, and at least one."""
    return max(1, BATCH_BYTES // max(1, per_item))


def batch_dtype(n: int) -> np.dtype:
    """The dtype of an n-vertex block's row words: the narrowest unsigned
    dtype whose bits hold the row up to 64 vertices, uint64 beyond."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def row_words(n: int) -> int:
    """Words per row of a block, W = ceil(n / 64)."""
    return -(-n // 64)


def row_bytes(n: int) -> int:
    """Bytes one graph's rows take in a block, zero_rows(1, n).nbytes."""
    return n * row_words(n) * batch_dtype(n).itemsize


def zero_rows(count: int, n: int) -> np.ndarray:
    """A block of count n-vertex graphs with no edges: (count, n, W) words
    of batch_dtype(n), W = row_words(n), bit w of row v, in bit w % 64 of
    word w // 64, set when v and w are adjacent."""
    return np.zeros((count, n, row_words(n)), dtype=batch_dtype(n))


def row_ints(words: np.ndarray) -> list[int]:
    """One graph's (n, W) row words as n Python ints."""
    stride = 8 * words.shape[1]
    buf = memoryview(words.astype("<u8", copy=False).tobytes())
    return [int.from_bytes(buf[i:i + stride], "little")
            for i in range(0, len(buf), stride)]


def row_graphs(rows: np.ndarray) -> list[Graph]:
    """The Graph of each graph of a block."""
    n = rows.shape[1]
    if rows.shape[2] == 1:
        return [Graph._from_rows_unchecked(n, row) for row in rows[..., 0].tolist()]
    return [Graph._from_rows_unchecked(n, row_ints(words)) for words in rows]


def mask_words(mask: int, rows: np.ndarray) -> np.ndarray:
    """A vertex bitmask as one row's (W,) words in the layout of rows."""
    width = rows.shape[2]
    bits = 8 * rows.dtype.itemsize
    full = (1 << bits) - 1
    return np.array([mask >> (bits * i) & full for i in range(width)], dtype=rows.dtype)


def row_bits(rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where bit v of row u lies in one graph's rows of the layout of rows,
    flattened: the index of its word, and that word with only the bit set,
    of rows' dtype."""
    width = rows.shape[2]
    bits = 8 * rows.dtype.itemsize
    return u * width + v // bits, rows.dtype.type(1) << (v % bits).astype(rows.dtype)


# -- wide rows from a packed colex presence bitmap -----------------------

def packed_words(bits: np.ndarray) -> np.ndarray:
    """A flat bool array as little-endian uint64 words, bit i in bit i % 64
    of word i // 64, and one zero word after them, which index -1 reads."""
    words = np.zeros(row_words(bits.size) + 1, dtype="<u8")
    packed = np.packbits(bits, bitorder="little")
    words.view(np.uint8)[:packed.size] = packed
    return words


class Windows(NamedTuple):
    """Where to read 64-bit windows of a packed bit stream (packed_words):
    window j is bits start_j .. start_j + 63 of the stream, that is
    words[low_j] >> right_j | words[high_j] << left_j (read_windows)."""
    low: np.ndarray
    high: np.ndarray
    right: np.ndarray
    left: np.ndarray


def windows(starts: np.ndarray) -> Windows:
    """The Windows at the given int64 bit offsets, each >= -64.

    Bits before the stream read as zeros: a start s < 0 reads word -1, the
    zero word, in place of the word before word 0, so start -64 reads a
    zero window.  A word-aligned window reads its high part from the zero
    word too, so shifting it left by 64 shifts a zero.
    """
    right = starts & 63
    low = starts >> 6
    high = np.where(right == 0, -1, low + 1)
    return Windows(low, high, right.astype(np.uint64), (64 - right).astype(np.uint64))


def read_windows(words: np.ndarray, at: Windows) -> np.ndarray:
    """The 64-bit windows of a packed stream at the offsets of at, as a
    uint64 array of their shape."""
    out = words[at.low]
    out >>= at.right
    high = words[at.high]
    high <<= at.left
    out |= high
    return out


# (j, shift, mask) per step of the 64x64 transpose: a step swaps, in every
# pair of j-word runs, the high j bits of each 2j-bit group of the first
# run with the low j bits of the same group of the second
_TRANSPOSE_STEPS = tuple((j, np.uint64(j), np.uint64(mask)) for j, mask in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555)))


def transpose_blocks(blocks: np.ndarray) -> np.ndarray:
    """The transpose of every 64x64 bit block of a (64, K) uint64 array.

    Column k is block k: word i of the column is the block's row i, and
    bit j of it the block's column j.  The result holds in bit j of word i
    of block k what the input held in bit i of word j.  Six steps, each
    swapping two j x j sub-blocks of every 2j x 2j sub-block at once
    (Warren, Hacker's Delight, 7-3), over whole runs of words, so every
    step is a few array operations over all K blocks.
    """
    out = blocks.copy()
    count = out.shape[1]
    swap = np.empty((32, count), dtype=np.uint64)
    for j, shift, mask in _TRANSPOSE_STEPS:
        pairs = out.reshape(32 // j, 2, j, count)
        low, high = pairs[:, 0], pairs[:, 1]
        t = swap.reshape(32 // j, j, count)
        np.right_shift(low, shift, out=t)
        t ^= high
        t &= mask
        high ^= t
        t <<= shift
        low ^= t
    return out


# row i of a diagonal block keeps its bits below i
_BELOW_DIAGONAL = ((np.uint64(1) << np.arange(64, dtype=np.uint64))
                   - np.uint64(1))[:, None]


@lru_cache(maxsize=4)
def _lower_blocks(n: int) -> tuple[np.ndarray, np.ndarray, Windows]:
    """The 64x64 blocks (I, J), J <= I, of n-vertex rows, off-diagonal
    ones first, and where each block's words lie in the packed colex
    presence bitmap: row v = 64I + i, word J holds edges tri(v) + 64J ..
    + 63, so it is the window at that offset; rows past n read zeros."""
    width = row_words(n)
    big, small = np.tril_indices(width)
    order = np.argsort(big == small, kind="stable")
    big, small = big[order], small[order]
    v = 64 * big + np.arange(64)[:, None]
    at = windows(np.where(v < n, v * (v - 1) // 2 + 64 * small, -64))
    for arr in (big, small, *at):
        arr.flags.writeable = False
    return big, small, at


def presence_rows(n: int, words: np.ndarray) -> np.ndarray:
    """The (n, W) uint64 row words, W = ceil(n / 64), of the graph whose
    colex presence bitmap is packed in words (packed_words).

    Row v's bits below v are the bitmap's bits tri(v) .. tri(v) + v - 1,
    so the lower triangle's 64x64 blocks are windows of the bitmap; the
    upper triangle is their transpose (transpose_blocks).  No edge index
    is formed.
    """
    big, small, at = _lower_blocks(n)
    width = row_words(n)
    off = big.size - width
    lower = read_windows(words, at)
    lower[:, off:] &= _BELOW_DIAGONAL
    upper = transpose_blocks(lower)
    upper[:, off:] |= lower[:, off:]
    rows = np.empty((width, 64, width), dtype=np.uint64)
    rows[big[:off], :, small[:off]] = lower[:, :off].T
    rows[small, :, big] = upper.T
    return rows.reshape(64 * width, width)[:n]


def _columns(rows: np.ndarray) -> np.ndarray:
    # vertex-major: one contiguous array of T row words per vertex; a copy
    # of a sampled block, a view of the oracle's, which is vertex-major
    return np.ascontiguousarray(rows.T)


def _union_of_rows(cols: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per graph t, the OR of its rows v over the vertices v in masks[t],
    as one masked reduction over the vertices from the lowest to the
    highest that some graph's mask holds."""
    live = int(np.bitwise_or.reduce(masks))
    lo, hi = max(0, (live & -live).bit_length() - 1), live.bit_length()
    picked = masks >> np.arange(lo, hi, dtype=cols.dtype)[:, None]
    picked &= cols.dtype.type(1)
    picked *= cols[lo:hi]
    return np.bitwise_or.reduce(picked, axis=0)


def batch_connected(rows: np.ndarray) -> np.ndarray:
    """is_connected of every graph: the vertices reached from vertex 0 grow
    by their neighbourhoods, at most n - 1 rounds, until no graph gains one."""
    count, n, width = rows.shape
    if width > 1:
        return _wide_connected(rows)
    rows = rows[..., 0]
    cols = _columns(rows)
    reached = np.ones(count, dtype=rows.dtype)
    for _ in range(n - 1):
        grown = reached | _union_of_rows(cols, reached)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached == rows.dtype.type((1 << n) - 1)


def _wide_connected(rows: np.ndarray) -> np.ndarray:
    # each round ORs the rows of the vertices first reached in the round
    # before, gathered graph by graph, so every row is read at most once
    count, n, _ = rows.shape
    reached = np.zeros((count, n), dtype=bool)
    reached[:, 0] = True
    frontier = reached.copy()
    while True:
        graph, vertex = np.nonzero(frontier)
        if not graph.size:
            return reached.all(axis=1)
        heads = np.flatnonzero(np.diff(graph, prepend=-1))
        union = np.bitwise_or.reduceat(rows[graph, vertex], heads, axis=0)
        bits = np.unpackbits(union.astype("<u8", copy=False).view(np.uint8),
                             axis=1, count=n, bitorder="little").view(bool)
        grown = graph[heads]
        frontier[...] = False
        frontier[grown] = bits & ~reached[grown]
        reached |= frontier


def batch_has_clique(rows: np.ndarray, k: int) -> np.ndarray:
    """Whether each graph has a k-clique, k >= 1; beyond 64 vertices by
    contains_subgraph on each graph's Graph."""
    if rows.shape[2] > 1:
        pattern = SubgraphPattern.clique(k)
        return np.array([contains_subgraph(g, pattern) for g in row_graphs(rows)],
                        dtype=bool)
    rows = rows[..., 0]
    full = np.full(len(rows), (1 << rows.shape[1]) - 1, dtype=rows.dtype)
    return _clique_among(_columns(rows), full, k)


def _clique_among(cols: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    # per graph t, whether the vertex set cand[t] holds a k-clique
    if k == 1:
        return cand != 0
    if k == 2:
        return (_union_of_rows(cols, cand) & cand) != 0
    dtype = cols.dtype.type
    full = (1 << len(cols)) - 1
    found = np.zeros(len(cand), dtype=bool)
    live = cand
    done = 0
    # cliques by lowest vertex v: the rest lie among v's higher neighbours
    # in the set, at least k - 1 of them; a graph leaves once it has one
    while rest := int(np.bitwise_or.reduce(live)) & ~done:
        v = (rest & -rest).bit_length() - 1
        done = (2 << v) - 1
        sub = (cols[v] & live & dtype(full ^ done)) * ((live >> dtype(v)) & dtype(1))
        sub *= (np.bitwise_count(sub) >= k - 1).astype(sub.dtype)
        if sub.any():
            hit = _clique_among(cols, sub, k - 1)
            found |= hit
            live = live * (~hit).astype(live.dtype)
    return found


def _popcounts(rows: np.ndarray) -> np.ndarray:
    # per graph, the set bits of all its words, as int64
    return np.bitwise_count(rows).reshape(len(rows), -1).sum(axis=1, dtype=np.int64)


def batch_degrees(rows: np.ndarray) -> np.ndarray:
    """The degree of every vertex of every graph, as a (T, n) int64 array:
    the popcount of its row, summed over the row's words."""
    return np.bitwise_count(rows).sum(axis=2, dtype=np.int64)


def batch_isolated(rows: np.ndarray) -> np.ndarray:
    """Whether each vertex of each graph has no neighbour, as (T, n) bools."""
    return ~rows.any(axis=2)


def batch_edge_counts(rows: np.ndarray) -> np.ndarray:
    """edge_count of every graph, as int64."""
    return _popcounts(rows) // 2


def batch_edges_between(rows: np.ndarray, a: Iterable[int],
                        b: Iterable[int]) -> np.ndarray:
    """count_edges_between(g, a, b) of every graph, as int64."""
    n = rows.shape[1]
    picked = rows[:, list(iter_bits(vertex_mask(a, n)))]
    return _popcounts(picked & mask_words(vertex_mask(b, n), rows))
