"""Primitive periodic orbits on the directed bonds: enumeration and amplitudes.

A periodic orbit is a cyclic sequence of following directed bonds,
identified up to rotation (a cycle and its reversal are distinct orbits).
Orbits are stored in canonical form, the lexicographically minimal
rotation: a primitive orbit's canonical form is a Lyndon word over the bond
indices.  They are enumerated by a depth-first search over prenecklaces,
the prefixes of Lyndon words, which reaches only walks that can still
become canonical and emits each length block in lexicographic order, the
catalog order; no rotation test and no sort follow.  The last step of the
search is a lookup, not a frontier: on a simple graph only one bond can
close a walk into its start.  Blocks are kept columnar (flat arrays of
the narrowest unsigned type, one byte per step while 2B <= 256) so
catalogs with millions of orbits stay affordable; PrimitiveOrbit views
are materialized on demand.  The exact size of every block is known
before the search, from closed-walk traces read off vertex-sized
matrices (tr A^n, and Bass's 2V x 2V matrix T for back-scatter-free
orbits), so an oversized catalog is refused before memory is spent and
each block is allocated once.

The orbit amplitude a_p is the cyclic product of the entries U[d_{k+1}, d_k]
of the evolution operator along the orbit.  U and its per-vertex
coefficients (see :mod:`.scattering`) are the one definition of the
scattering amplitudes: the amplitudes here are built from two step
amplitudes, transmission and back-scatter, of the same coefficients, and
the tests check them against products of the entries of U.  An amplitude
depends only on how often the orbit steps through each column with and
without back-scatter, a column being the vertex entered (standard kind) or
the bond entering it (generalized kind), so the orbits of each length fall
into exact classes of equal per-column counts (533,830 orbits in 29,748
classes on K4 to length 14); one amplitude is evaluated per class and
gathered into catalog order.
The trace identity
tr U^n = sum_{m|n} m sum_{p in P(m)} a_p^{n/m}  is the workhorse
cross-check between the spectral and the combinatorial sides.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import CatalogDepthError, CatalogSizeError
from .graph import DirectedBondSpace, Graph
from .scattering import vertex_coefficients

DEFAULT_MAX_ORBITS = 10_000_000
_CHUNK_ROWS = 16_384  # walks per frontier piece; also bonds x columns of a pre-flight block
_LEAF = 65_536  # orbits per leaf of the pairwise tree: a leaf's powers stay in cache


@dataclass
class PrimitiveOrbit:
    """One primitive periodic orbit in canonical rotation."""

    bonds: tuple[int, ...]
    backscatter_count: int

    @property
    def period(self) -> int:
        return len(self.bonds)

    @property
    def no_backtrack(self) -> bool:
        return self.backscatter_count == 0


class _LengthBlock:
    """Columnar store of all canonical orbits of one period.

    Each array takes the narrowest unsigned type that holds its values:
    walks np.min_scalar_type(2B - 1), one byte per step while 2B <= 256,
    and beta np.min_scalar_type(max_length), one byte up to length 255.
    """

    __slots__ = ("walks", "beta", "_stats")

    def __init__(self, walks: np.ndarray, beta: np.ndarray):
        self.walks = walks  # (count, n) bond indices, unsigned
        self.beta = beta  # (count,) back-scatter counts, unsigned
        self._stats: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def count(self) -> int:
        return self.walks.shape[0]


class OrbitCatalog:
    """All primitive periodic orbits of a graph up to a maximum period."""

    def __init__(self, space: DirectedBondSpace, max_length: int, no_backtrack: bool):
        self.space = space
        self.max_length = max_length
        self.no_backtrack = no_backtrack
        self._blocks: dict[int, _LengthBlock] = {}

    # -- counts -------------------------------------------------------------

    def count(self, n: int) -> int:
        """|P(n)|, or |C(n)| for a no-backtrack catalog."""
        block = self._blocks.get(n)
        return 0 if block is None else block.count

    def count_no_backtrack(self, n: int) -> int:
        """|C(n)|: primitive n-orbits without back-scatter."""
        block = self._blocks.get(n)
        if block is None:
            return 0
        return block.count if self.no_backtrack else int(np.sum(block.beta == 0))

    def total(self) -> int:
        return sum(b.count for b in self._blocks.values())

    def counts_table(self) -> dict[int, tuple[int, int]]:
        """n -> (|P(n)|, |C(n)|) for every enumerated length."""
        return {
            n: (self.count(n), self.count_no_backtrack(n))
            for n in range(2, self.max_length + 1)
        }

    # -- orbit access ---------------------------------------------------------

    def orbit(self, n: int, idx: int) -> PrimitiveOrbit:
        block = self._blocks[n]
        return PrimitiveOrbit(
            bonds=tuple(int(b) for b in block.walks[idx]),
            backscatter_count=int(block.beta[idx]),
        )

    def iter_orbits(self):
        for n in sorted(self._blocks):
            block = self._blocks[n]
            for i in range(block.count):
                yield self.orbit(n, i)

    def export_jsonl(self, fh) -> int:
        """Write one {"n":..,"beta":..,"bonds":[..]} JSON object per line."""
        count = 0
        for orbit in self.iter_orbits():
            n, beta, bonds = orbit.period, orbit.backscatter_count, ",".join(map(str, orbit.bonds))
            fh.write(f'{{"n": {n}, "beta": {beta}, "bonds": [{bonds}]}}\n')
            count += 1
        return count

    def _class_blocks(self, top: int, kind: str) -> tuple[list, np.ndarray]:
        """(classes, index) for the periods <= top: the class rows of each period,
        ascending, and each orbit's row of their stacked table (intp, catalog order).
        """
        stats = [self._vertex_stats(n, kind) for n in sorted(self._blocks) if n <= top]
        index = np.empty(sum(block_index.size for _, block_index in stats), dtype=np.intp)
        lo = row = 0
        for classes, block_index in stats:
            np.add(block_index, np.intp(row), out=index[lo : lo + block_index.size])
            lo += block_index.size
            row += classes.shape[0]
        return [classes for classes, _ in stats], index

    def require_depth(self, n: int) -> None:
        if n > self.max_length:
            raise CatalogDepthError(
                f"catalog enumerated to length {self.max_length}, need {n}"
            )

    def require_graph(self, g: Graph) -> None:
        if self.space.graph != g:  # by value: an equal graph built anew is the same graph
            raise ValueError("catalog was enumerated on another graph")

    def require_full(self) -> None:  # sums over P(n) need the orbits that back-scatter
        if self.no_backtrack:
            raise ValueError("catalog holds only the orbits without back-scatter")

    # -- orbit classes ---------------------------------------------------------

    def _vertex_stats(self, n: int, kind: str = "standard") -> tuple[np.ndarray, np.ndarray]:
        """(classes, index): the distinct per-column step counts of the n-orbits.

        A step along bond d is keyed on a column, terminus(d) for the standard
        kind (V columns) and d itself for the generalized kind (2B columns),
        shifted by the column count on a back-scatter.  Row c of classes
        (int32) holds the step counts of class c per shifted column, on which
        an amplitude of that kind depends; index[p] (int32) is the class of
        orbit p in catalog order.  The classes are exact: a count row is kept
        as one byte per count (wider once n > 255, so no count carries into
        its neighbour), packed into 64-bit words, and rows are grouped by
        sorting on every word, never by a hash or a single bounded key.
        The steps are read from a transposed copy of the walks, in their
        catalog type (one byte per step while 2B <= 256).  Cached on the
        block, per kind.
        """
        block = self._blocks[n]
        if kind in block._stats:
            return block._stats[kind]
        steps = block.walks.T.copy()  # bond of step k in contiguous row k
        m = block.count
        rev = self.space.reversal.astype(steps.dtype)
        if kind == "standard":
            key_of, ncol = self.space.terminus, self.space.graph.num_vertices
        else:
            key_of, ncol = np.arange(self.space.num_bonds), self.space.num_bonds
        # int32 throughout: int64 temporaries of m entries cost more than the gathers
        key_of, back_shift = key_of.astype(np.int32), np.int32(ncol)
        width = 8 * np.min_scalar_type(n).itemsize  # bits per count
        per_word = 64 // width
        col = np.arange(2 * ncol)
        shift = (width * (col % per_word)).astype(np.uint64)
        unit = np.zeros((-(-col.size // per_word), col.size), dtype=np.uint64)
        unit[col // per_word, col] = np.uint64(1) << shift
        keys = np.zeros((unit.shape[0], m), dtype=np.uint64)
        for k in range(n):
            # step code: column of the step, shifted by ncol on back-scatter
            back = steps[(k + 1) % n] == np.take(rev, steps[k])
            code = np.take(key_of, steps[k]) + back_shift * back
            keys += np.take(unit, code, axis=1)
        del steps, back, code  # m-sized each, not needed by the sort
        # argsort is about three times faster than lexsort on a single key
        order = np.argsort(keys[0]) if keys.shape[0] == 1 else np.lexsort(keys[::-1])
        keys = np.take(keys, order, axis=1)
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=first[1:])
        index = np.empty(m, dtype=np.int32)
        labels = np.cumsum(first, dtype=np.int32)
        labels -= 1
        index[order] = labels
        mask = np.uint64((1 << width) - 1)
        classes = ((keys[:, first][col // per_word] >> shift[:, None]) & mask).T
        block._stats[kind] = (classes.astype(np.int32), index)
        return block._stats[kind]


def _closed_walks(
    space: DirectedBondSpace, max_length: int, no_backtrack: bool, exact: bool
) -> list[int]:
    """[tr S^n for n = 0..top], S the bond successor matrix (Hashimoto's B when no_backtrack).

    Both traces live on the V vertices that carry a bond (an isolated one
    closes no walk).  S factors through them, so tr S^n = tr A^n; by
    Bass's form of Ihara's theorem (Bass, Internat. J. Math. 3 (1992) 717)
    tr B^n = tr T^n + 2(B - V)[n even], T = [[A, I - D], [I, 0]], and
    tr T^n = tr P_n + tr (I - D) P_(n-2) for P_n = A P_(n-1) + (I - D)
    P_(n-2), the upper-left block of T^n.  Rows of P_n are propagated a
    block of start vertices at a time, the gathered state about _CHUNK_ROWS
    entries, in Python integers when exact; in int64 top stops before an
    entry could overflow, else it is max_length.
    """
    valency = space.graph.degrees().valency
    deg = valency[valency > 0]
    v = deg.size
    label = np.cumsum(valency > 0) - 1
    # row s of P_n sums the rows of P_(n-1) at the neighbours of s, grouped here
    neighbour = label[space.terminus[space.by_origin]]
    starts = space.offsets[:-1][valency > 0]
    loss = 1 - deg  # the diagonal of I - D
    safe = np.iinfo(np.int64).max // (2 * int(deg.max(initial=1)))  # no step can overflow
    dtype = object if exact else np.int64
    traces = [0] * (max_length + 1)
    top = max_length
    width = max(1, _CHUNK_ROWS // max(1, neighbour.size))
    for lo in range(0, v, width):
        rows = np.arange(lo, min(lo + width, v))
        diagonal = (np.arange(rows.size), rows)
        prev = np.zeros((rows.size, v), dtype=dtype)  # P_(n-2)
        cur = np.zeros_like(prev)  # P_(n-1)
        cur[diagonal] = 1
        for n in range(1, top + 1):
            nxt = np.add.reduceat(cur[:, neighbour], starts, axis=1)
            if no_backtrack:
                nxt += loss * prev
                traces[n] += sum((loss[rows] * prev[diagonal]).tolist())
            prev, cur = cur, nxt
            traces[n] += sum(cur[diagonal].tolist())
            if not exact and np.abs(cur).max() > safe:  # step n + 1 could overflow
                top = n
                break
    if no_backtrack:
        for n in range(2, top + 1, 2):
            traces[n] += space.num_bonds - 2 * v  # 2(B - V)
    return traces[: top + 1]


def _preflight_counts(
    space: DirectedBondSpace, max_length: int, no_backtrack: bool, max_orbits: float
) -> dict[int, int]:
    """n -> |P(n)| (|C(n)| when no_backtrack) for n = 2..max_length, exactly.

    tr S^n = sum_{m|n} m |P(m)| (Terras, Zeta Functions of Graphs, CUP
    2011, ch. 2) is solved for |P(n)| one length at a time (Moebius
    inversion) from :func:`_closed_walks`: one int64 pass, taken again in
    Python integers only if it stops short of max_length before the cap is
    passed.  Raises CatalogSizeError at the first length at which the
    running total passes max_orbits.
    """
    try:
        max_length = operator.index(max_length)
    except TypeError:
        raise TypeError(f"max_length must be an integer, got {max_length!r}") from None
    if max_length < 2:
        raise ValueError("max_length must be at least 2")
    if max_orbits < 0:
        raise ValueError(f"max_orbits must be non-negative, got {max_orbits}")
    for exact in (False, True):
        traces = _closed_walks(space, max_length, no_backtrack, exact)
        counts: dict[int, int] = {}
        total = 0
        for n in range(1, len(traces)):
            counts[n] = (traces[n] - sum(m * counts[m] for m in counts if n % m == 0)) // n
            total += counts[n]  # |P(1)| = 0: a simple graph has no self-loops
            if total > max_orbits:
                raise CatalogSizeError(max_orbits, n)
        if len(traces) > max_length:
            break
    del counts[1]
    return counts


def enumerate_orbits(
    space: DirectedBondSpace,
    max_length: int,
    no_backtrack: bool = False,
    max_orbits: int = DEFAULT_MAX_ORBITS,
) -> OrbitCatalog:
    """Enumerate every primitive periodic orbit of period <= max_length.

    A canonical orbit is a Lyndon word over the bond indices: strictly
    smaller than each of its rotations, hence primitive.  The search runs
    depth-first over prenecklaces (Ruskey, Savage & Wang, J. Algorithms 13
    (1992) 414), the prefixes of Lyndon words, from all start bonds in one
    frontier.  Every walk a of t bonds carries its back-scatter count and
    its period p, the length of its longest Lyndon prefix; a following bond
    c extends it only if c >= a[t-p], and the period becomes t+1 if
    c > a[t-p] (else it stays p).  A walk is an orbit iff p == t and its
    last bond leads back into its first, so no rotation test is needed.
    Walks may revisit bonds.  The search is vectorized over frontiers of at
    most _CHUNK_ROWS walks; successors come in ascending order and the
    pieces of a frontier are searched first to last, so each length block
    is emitted already in lexicographic (catalog) order.

    The last two levels are one pass, so the largest frontier, the walks
    of length max_length - 1, is never built: on a simple graph the only
    bond that can close walk + [c1] into an orbit is the one from
    terminus(c1) to origin(start), found by binary search in the bonds'
    sorted keys origin V + terminus (O(B) memory, no V x V table), and kept
    if it passes the period test of any other step.

    Before any walk is allocated, the exact count of every length comes
    from the closed-walk traces (:func:`_preflight_counts`), which reject
    max_length < 2 and max_orbits < 0 with ValueError.  A catalog larger
    than max_orbits raises CatalogSizeError there, naming the first length
    at which the total passes the cap.  Otherwise each length block is
    allocated once at its count, and every orbit the search finds is
    written in place, with its back-scatter count (the walk's plus its
    closing step), at the block's cursor.

    Walks, in the frontier and in the catalog, store bonds in the narrowest
    unsigned type for 2B bonds (uint8 while 2B <= 256); periods and
    back-scatter counts in the narrowest for max_length (uint8 up to 255).
    The successor table alone is signed, one size up, so that its -1
    padding fails the period test.  Each per-(walk, c1) temporary is freed
    once read, so the traced peak stays near the catalog's own bytes.
    """
    counts = _preflight_counts(space, max_length, no_backtrack, max_orbits)
    catalog = OrbitCatalog(space, max_length, no_backtrack)
    nb = space.num_bonds
    dtype = np.min_scalar_type(nb - 1)  # bond indices: uint8 while 2B <= 256
    count_type = np.min_scalar_type(max_length)  # periods and back-scatter counts
    # signed, one size up: its -1 padding must fail cand >= floor
    succ_pad = space.successor_table.astype(np.promote_types(dtype, np.int8))

    blocks = {
        n: _LengthBlock(np.empty((m, n), dtype=dtype), np.empty(m, dtype=count_type))
        for n, m in counts.items()
        if m
    }
    cursor = dict.fromkeys(blocks, 0)

    # reversal(d) == d ^ 1: directed_bonds numbers the two directions of
    # edge k as 2k and 2k+1
    origin = space.origin.astype(np.int32)
    terminus = space.terminus.astype(np.int32)
    # bond u -> v sits at key u V + v of the sorted keys: O(B), no V x V table
    nv = space.graph.num_vertices
    head = space.terminus * np.int64(nv)  # terminus(d) V: key prefix of the bonds after d
    bond_key = space.origin * np.int64(nv) + space.terminus
    bond_of_key = np.argsort(bond_key).astype(dtype)
    bond_key = bond_key[bond_of_key]

    def emit(n: int, walks: np.ndarray, rows: np.ndarray, tail: list[np.ndarray],
             beta: np.ndarray) -> None:
        """Write the orbits walks[rows] + tail, of period n, at the block's cursor."""
        if rows.size == 0:
            return
        block, lo = blocks[n], cursor[n]
        hi = cursor[n] = lo + rows.size
        t = walks.shape[1]
        block.walks[lo:hi, :t] = np.take(walks, rows, axis=0)
        for k, bonds in enumerate(tail):
            block.walks[lo:hi, t + k] = bonds
        block.beta[lo:hi] = beta

    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def push(walks: np.ndarray, period: np.ndarray, back: np.ndarray) -> None:
        # the first piece goes on top: pieces are searched in order
        for lo in reversed(range(0, walks.shape[0], _CHUNK_ROWS)):
            piece = slice(lo, lo + _CHUNK_ROWS)
            stack.append((walks[piece], period[piece], back[piece]))

    # every start bond in one frontier: rows begin with their start bond,
    # so one lexicographic order covers all starts
    push(np.arange(nb, dtype=dtype)[:, None], np.ones(nb, dtype=count_type),
         np.zeros(nb, dtype=count_type))
    while stack:
        walks, period, back = stack.pop()
        m, t = walks.shape
        flat = walks.ravel()  # pieces are row slices of a C-ordered frontier
        last = walks[:, -1]
        cand = np.take(succ_pad, last, axis=0)  # (m, max_deg), ascending, padded with -1
        floor = np.take(flat, np.arange(m) * t + (t - period))  # a[t - p] of each walk a
        ok = cand >= floor[:, None]
        if no_backtrack:
            ok &= cand != (last ^ 1)[:, None]
        pairs = np.flatnonzero(ok)  # (row, c1) pairs in lexicographic order
        del ok
        if pairs.size == 0:
            continue
        rows = pairs // cand.shape[1]
        c1 = np.take(cand, pairs)
        del pairs
        grew = c1 > np.take(floor, rows)
        start = np.take(walks[:, 0], rows)
        back1 = np.take(back, rows) + (c1 == (np.take(last, rows) ^ 1))
        # period-(t+1) orbits: walk + [c1] is a Lyndon word that closes
        closing = grew & (np.take(terminus, c1) == np.take(origin, start))
        if no_backtrack:
            closing &= c1 != (start ^ 1)
        i = np.flatnonzero(closing)
        rows_i, start_i, c1_i = (np.take(x, i) for x in (rows, start, c1))
        emit(t + 1, walks, rows_i, [c1_i], np.take(back1, i) + (start_i == (c1_i ^ 1)))
        if t + 2 < max_length:
            ext = np.empty((rows.size, t + 1), dtype=dtype)
            ext[:, :-1] = np.take(walks, rows, axis=0)
            ext[:, -1] = c1
            push(ext, np.where(grew, count_type.type(t + 1), np.take(period, rows)), back1)
        elif t + 2 == max_length:
            # the last level by lookup: the graph is simple, so only the bond
            # c2 = terminus(c1) -> origin(start) can close walk + [c1] + [c2],
            # and it must exceed a[t + 1 - p1] of walk + [c1], p1 the period
            # after c1.  That entry lies in walk: p1 == 1 would need c1 to
            # equal the bond before it, a self-loop.
            key = np.take(head, c1) + np.take(origin, start)
            at = np.searchsorted(bond_key, key)  # 2B past the last key: clipped, a mismatch
            c2 = np.take(bond_of_key, at, mode="clip")
            lag = np.where(grew, 0, t + 1 - np.take(period, rows))
            keep = np.take(bond_key, at, mode="clip") == key
            del key, at
            keep &= c2 > np.take(flat, rows * t + lag)
            if no_backtrack:
                keep &= (c2 != (c1 ^ 1)) & (c2 != (start ^ 1))
            i = np.flatnonzero(keep)
            rows_i, start_i, c1_i, c2_i = (np.take(x, i) for x in (rows, start, c1, c2))
            beta = np.take(back1, i) + (c2_i == (c1_i ^ 1)) + (start_i == (c2_i ^ 1))
            emit(t + 2, walks, rows_i, [c1_i, c2_i], beta)

    for n, block in blocks.items():
        assert cursor[n] == block.count, f"length {n}: found {cursor[n]} of {block.count}"
    catalog._blocks = blocks
    return catalog


# -- amplitudes --------------------------------------------------------------


def _step_factors(space: DirectedBondSpace, lam: complex, kind: str) -> tuple:
    """(log tau, rho) per column of the class counts of :func:`_class_table`."""
    c = vertex_coefficients(space.graph, lam, kind)
    if kind != "standard":
        c = c[space.terminus] * space.bond_weight
    return np.log(-1j * c), 1j * (1.0 - c)


def _class_table(blocks: list, log_tau: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The amplitude of each class of blocks, as in catalog._class_blocks(top, kind)[0].

    A step entering vertex j = terminus(d) along bond d has amplitude
    tau = -i c, or rho = i(1 - c) when it back-scatters, with c = coef_j
    per vertex for the standard kind and c = coef_j w_d per bond for the
    generalized kind (see :func:`_step_factors`): the sqrt(w_d' w_d) of U
    telescope around a cycle, as w_d = w_rev(d).  Orbits with equal
    per-column counts therefore share one amplitude, exp(counts @ [log tau;
    log rho]), evaluated once per class; where some rho is exactly zero,
    the back-scatter factors are integer powers of rho, so those amplitudes
    come out exactly zero.  Pure array arithmetic, so any thread may run it.
    """
    ncol = log_tau.size
    log_rho = np.log(rho) if np.all(np.abs(rho) > 0.0) else None
    table = [np.empty(0, dtype=np.complex128)]
    for classes in blocks:
        passes, backs = classes[:, :ncol], classes[:, ncol:]
        if log_rho is not None:
            table.append(np.exp(passes @ log_tau + backs @ log_rho))
        else:
            table.append(np.exp(passes @ log_tau) * np.prod(rho[None, :] ** backs, axis=1))
    return np.concatenate(table)


def _power_sums(table: np.ndarray, index: np.ndarray, count: int) -> np.ndarray:
    """[sum_p table[index[p]]^r for r = 1..count], each bit-identical to ndarray.sum.

    ndarray.sum of c complex entries is numpy's pairwise sum over n = 2c floats
    (Higham, SIAM J. Sci. Comput. 14 (1993) 783), split at n//2 - (n//2) % 8;
    the powers are taken per leaf of <= _LEAF entries, and summed up that tree.
    Pure array arithmetic, so any thread may run it.
    """
    c = index.size
    if c > _LEAF:
        mid = (c - c % 8) // 2
        return _power_sums(table, index[:mid], count) + _power_sums(table, index[mid:], count)
    amps = table[index]
    power = amps.copy()
    sums = np.empty(count, dtype=np.complex128)
    for r in range(count):
        if r:
            power *= amps
        sums[r] = power.sum()
    return sums


def bulk_amplitudes(
    catalog: OrbitCatalog, lam: complex, kind: str = "standard",
    max_length: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes of every catalog orbit with period <= max_length.

    Returns (lengths, betas, amplitudes) as flat arrays in catalog order,
    lengths and betas int64.  The amplitudes are one gather from the class
    table of :func:`_class_table`.
    """
    top = catalog.max_length if max_length is None else max_length
    catalog.require_depth(top)
    classes, index = catalog._class_blocks(top, kind)
    table = _class_table(classes, *_step_factors(catalog.space, lam, kind))
    blocks = {n: b for n, b in sorted(catalog._blocks.items()) if n <= top}
    lengths = np.repeat(np.array(list(blocks), dtype=np.int64), [b.count for b in blocks.values()])
    betas = np.concatenate([np.empty(0, np.int64), *(b.beta for b in blocks.values())])
    return lengths, betas, table[index]


def _trace_powers(lengths: np.ndarray, amps: np.ndarray, top: int) -> np.ndarray:
    """t[n] = tr U^n for n = 0..top from the output of :func:`bulk_amplitudes`.

    tr U^n = sum over m dividing n of m * sum_{p in P(m)} a_p^{n/m}, for
    every n at once: the power sums r <= top/m of each length block m (the
    arrays are sorted by length) land in t[r m].  t[0] is left at zero.
    """
    t = np.zeros(top + 1, dtype=np.complex128)
    starts = np.searchsorted(lengths, np.arange(2, top + 2))
    for m in range(2, top + 1):
        if starts[m - 1] > starts[m - 2]:
            sums = _power_sums(amps, np.arange(starts[m - 2], starts[m - 1]), top // m)
            for r, s in enumerate(sums, 1):
                t[r * m] += m * s
    return t


def trace_power_from_orbits(
    catalog: OrbitCatalog, g: Graph, lam: complex, n: int, kind: str = "standard"
) -> complex:
    """tr U(lambda)^n summed over primitive orbits and their repetitions.

    sum over m dividing n of m * sum_{p in P(m)} a_p(lambda)^{n/m}; the
    repetition exponent n/m is required for the geometric structure of the
    log-determinant expansion (checked against matrix powers in the tests).
    Only the length blocks whose length divides n are read, each through its
    own class table, in ascending length, bit for bit entry n of
    :func:`_trace_powers`.  A catalog enumerated on a graph other than g
    raises ValueError, as do a no-backtrack catalog and n < 1.
    """
    if n < 1:
        raise ValueError(f"trace power needs n >= 1, got n={n}")
    catalog.require_depth(n)
    catalog.require_graph(g)
    catalog.require_full()
    factors = _step_factors(catalog.space, lam, kind)
    total = np.complex128(0.0)
    for m in sorted(catalog._blocks):
        if n % m == 0:
            classes, index = catalog._vertex_stats(m, kind)
            total += m * _power_sums(_class_table([classes], *factors), index, n // m)[-1]
    return complex(total)
