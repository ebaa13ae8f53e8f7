"""Primitive periodic orbits on the directed bonds: enumeration and amplitudes.

A periodic orbit is a cyclic sequence of following directed bonds,
identified up to rotation (a cycle and its reversal are distinct orbits).
Orbits are stored in canonical form, the lexicographically minimal
rotation: a primitive orbit's canonical form is a Lyndon word over the bond
indices.  They are enumerated by a depth-first search over prenecklaces,
the prefixes of Lyndon words, which reaches only walks that can still
become canonical and emits each length block in lexicographic order, the
catalog order; no rotation test and no sort follow.  Blocks are kept
columnar (flat integer arrays) so catalogs with millions of orbits stay
affordable; PrimitiveOrbit views are materialized on demand.  The exact
size of every block is known before the search, from closed-walk traces
read off vertex-sized matrices (tr A^n, and Bass's 2V x 2V matrix T for
back-scatter-free orbits), so an oversized catalog is refused before
memory is spent and each block is allocated once.

The orbit amplitude a_p is the cyclic product of the entries U[d_{k+1}, d_k]
of the evolution operator along the orbit.  U and its per-vertex
coefficients (see :mod:`.scattering`) are the one definition of the
scattering amplitudes: the reference path reads entries of U, and the bulk
path builds its two step amplitudes, transmission and back-scatter, from
the same coefficients.  An amplitude depends only on how often the orbit
steps through each column with and without back-scatter, a column being
the vertex entered (standard kind) or the bond entering it (generalized
kind), so the orbits of each length fall into exact classes of equal
per-column counts (533,830 orbits in 29,748 classes on K4 to length 14);
the bulk path evaluates one amplitude per class and gathers it into
catalog order.
The trace identity
tr U^n = sum_{m|n} m sum_{p in P(m)} a_p^{n/m}  is the workhorse
cross-check between the spectral and the combinatorial sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CatalogDepthError, CatalogSizeError
from .graph import DirectedBondSpace, Graph, _read_only
from .scattering import evolution_operator, vertex_coefficients

DEFAULT_MAX_ORBITS = 10_000_000
_CHUNK_ROWS = 16_384  # walks per frontier piece; also bonds x columns of a pre-flight block


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

    def validate(self, space: DirectedBondSpace) -> None:
        """Re-check the defining invariants; raises AssertionError on failure."""
        n = self.period
        seq = self.bonds
        for k in range(n):
            nxt = seq[(k + 1) % n]
            assert space.terminus[seq[k]] == space.origin[nxt], "bonds do not follow"
        rotations = [tuple(seq[k:]) + tuple(seq[:k]) for k in range(1, n)]
        assert all(rot > seq for rot in rotations), "not the minimal rotation or not primitive"
        beta = sum(1 for k in range(n) if seq[(k + 1) % n] == space.reversal[seq[k]])
        assert beta == self.backscatter_count, "wrong back-scatter count"


class _LengthBlock:
    """Columnar store of all canonical orbits of one period."""

    __slots__ = ("walks", "beta", "_stats")

    def __init__(self, walks: np.ndarray, beta: np.ndarray):
        self.walks = walks  # (count, n) bond indices
        self.beta = beta  # (count,) back-scatter counts
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
        self._flat: tuple[int, np.ndarray, np.ndarray] | None = None

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

    def orbits_of_length(self, n: int) -> list[PrimitiveOrbit]:
        return [self.orbit(n, i) for i in range(self.count(n))]

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

    def _flat_columns(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, betas) of the orbits of period <= top, flat in catalog order.

        Both are int64 and lambda-independent: built as read-only arrays
        for the periods up to top only, sliced for a smaller top, and
        rebuilt only when a larger top is asked for.
        """
        if self._flat is None or self._flat[0] < top:
            blocks = {n: b for n, b in self._blocks.items() if n <= top}
            lengths = np.repeat(
                np.array(list(blocks), dtype=np.int64), [b.count for b in blocks.values()]
            )
            betas = np.zeros(lengths.size, dtype=np.int64)
            if blocks:
                np.concatenate([b.beta for b in blocks.values()], out=betas)
            self._flat = (top, _read_only(lengths), _read_only(betas))
        _, lengths, betas = self._flat
        end = int(np.searchsorted(lengths, top, side="right"))
        return lengths[:end], betas[:end]

    def require_depth(self, n: int) -> None:
        if n > self.max_length:
            raise CatalogDepthError(
                f"catalog enumerated to length {self.max_length}, need {n}"
            )

    def require_graph(self, g: Graph) -> None:
        if self.space.graph != g:  # by value: an equal graph built anew is the same graph
            raise ValueError("catalog was enumerated on another graph")

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
        Cached on the block, per kind.
        """
        block = self._blocks[n]
        if kind in block._stats:
            return block._stats[kind]
        steps = block.walks.T.copy()  # bond of step k in contiguous row k
        m = block.count
        rev = self.space.reversal
        if kind == "standard":
            key_of, ncol = self.space.terminus, self.space.graph.num_vertices
        else:
            key_of, ncol = np.arange(self.space.num_bonds), self.space.num_bonds
        width = 8 * np.min_scalar_type(n).itemsize  # bits per count
        per_word = 64 // width
        col = np.arange(2 * ncol)
        shift = (width * (col % per_word)).astype(np.uint64)
        unit = np.zeros((-(-col.size // per_word), col.size), dtype=np.uint64)
        unit[col // per_word, col] = np.uint64(1) << shift
        keys = np.zeros((unit.shape[0], m), dtype=np.uint64)
        for k in range(n):
            # step code: column of the step, shifted by ncol on back-scatter
            code = key_of[steps[k]] + ncol * (steps[(k + 1) % n] == rev[steps[k]])
            keys += unit[:, code]
        # argsort is about three times faster than lexsort on a single key
        order = np.argsort(keys[0]) if keys.shape[0] == 1 else np.lexsort(keys[::-1])
        keys = keys[:, order]
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=first[1:])
        index = np.empty(m, dtype=np.int32)
        index[order] = np.cumsum(first) - 1
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
    last bond leads back into its first, so no rotation test is needed,
    and the last level generates only those closing steps.  Walks may
    revisit bonds.  The search is vectorized over frontiers of at most
    _CHUNK_ROWS walks; successors come in ascending order and the pieces
    of a frontier are searched first to last, so each length block is
    emitted already in lexicographic (catalog) order.

    Before any walk is allocated, the exact count of every length comes
    from the closed-walk traces (:func:`_preflight_counts`), which reject
    max_length < 2 and max_orbits < 0 with ValueError.  A catalog larger
    than max_orbits raises CatalogSizeError there, naming the first length
    at which the total passes the cap.  Otherwise each length block is
    allocated once at its count, and every orbit the search finds is
    written in place, with its back-scatter count (the walk's plus its
    closing step), at the block's cursor.
    """
    counts = _preflight_counts(space, max_length, no_backtrack, max_orbits)
    catalog = OrbitCatalog(space, max_length, no_backtrack)
    nb = space.num_bonds
    dtype = np.int16 if nb < 32000 else np.int32
    succ_pad = space.successor_table().astype(dtype)

    blocks = {
        n: _LengthBlock(np.empty((m, n), dtype=dtype), np.empty(m, dtype=np.int32))
        for n, m in counts.items()
        if m
    }
    cursor = dict.fromkeys(blocks, 0)

    # reversal(d) == d ^ 1: directed_bonds numbers the two directions of
    # edge k as 2k and 2k+1
    origin = space.origin
    terminus = np.append(space.terminus, -1)  # the -1 padding of succ_pad closes nothing

    def closes(bonds: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Whether a walk from a start bond that ends on a bond returns into it."""
        ok = terminus[bonds] == origin[starts]
        if no_backtrack:
            ok &= bonds != (starts ^ 1)
        return ok

    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def push(walks: np.ndarray, period: np.ndarray, back: np.ndarray) -> None:
        # the first piece goes on top: pieces are searched in order
        for lo in reversed(range(0, walks.shape[0], _CHUNK_ROWS)):
            piece = slice(lo, lo + _CHUNK_ROWS)
            stack.append((walks[piece], period[piece], back[piece]))

    # every start bond in one frontier: rows begin with their start bond,
    # so one lexicographic order covers all starts
    push(np.arange(nb, dtype=dtype)[:, None], np.ones(nb, dtype=np.int32),
         np.zeros(nb, dtype=np.int32))
    while stack:
        walks, period, back = stack.pop()
        m, t = walks.shape
        last = walks[:, -1]
        cand = succ_pad[last]  # (m, max_deg), ascending, padded with -1
        floor = walks[np.arange(m), t - period][:, None]
        ok = cand >= floor
        if no_backtrack:
            ok &= cand != (last ^ 1)[:, None]
        lyndon = cand > floor
        last_level = t + 1 == max_length
        if last_level:
            ok &= lyndon & closes(cand, walks[:, :1])
        rows, cols = np.nonzero(ok)
        if rows.size == 0:
            continue
        ext = np.empty((rows.size, t + 1), dtype=dtype)
        ext[:, :-1] = walks[rows]
        ext[:, -1] = cand[rows, cols]
        grew = lyndon[rows, cols]
        ext_back = back[rows] + (ext[:, -1] == (ext[:, -2] ^ 1))  # back-scatters so far
        if last_level:
            found, found_back = ext, ext_back
        else:
            sel = grew & closes(ext[:, -1], ext[:, 0])
            found, found_back = ext[sel], ext_back[sel]
        if found.shape[0]:
            block, lo = blocks[t + 1], cursor[t + 1]
            hi = lo + found.shape[0]
            block.walks[lo:hi] = found
            np.add(found_back, found[:, 0] == (found[:, -1] ^ 1), out=block.beta[lo:hi])
            cursor[t + 1] = hi
        if not last_level:
            push(ext, np.where(grew, np.int32(t + 1), period[rows]), ext_back)

    for n, block in blocks.items():
        assert cursor[n] == block.count, f"length {n}: found {cursor[n]} of {block.count}"
    catalog._blocks = blocks
    return catalog


# -- amplitudes --------------------------------------------------------------


def orbit_amplitude(
    orbit: PrimitiveOrbit, g: Graph, lam: complex, kind: str = "standard"
) -> complex:
    """Product of the entries of U(lambda) along one orbit (reference path)."""
    return orbit_matrix_amplitude(orbit, evolution_operator(g, lam, kind).matrix)


def orbit_matrix_amplitude(orbit: PrimitiveOrbit, matrix: np.ndarray) -> complex:
    """Cyclic product of matrix entries M[d_{k+1}, d_k] along the orbit."""
    seq = orbit.bonds
    n = len(seq)
    amp = 1.0 + 0.0j
    for k in range(n):
        amp *= matrix[seq[(k + 1) % n], seq[k]]
    return complex(amp)


def bulk_amplitudes(
    catalog: OrbitCatalog, lam: complex, kind: str = "standard",
    max_length: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes of every catalog orbit with period <= max_length.

    Returns (lengths, betas, amplitudes) as flat arrays in catalog order;
    lengths and betas are read-only views of arrays cached on the catalog.
    Both kinds work on the orbit classes of :meth:`OrbitCatalog._vertex_stats`.
    A step entering vertex j = terminus(d) along bond d has amplitude
    tau = -i c, or rho = i(1 - c) when it back-scatters, with c = coef_j
    per vertex for the standard kind and c = coef_j w_d per bond for the
    generalized kind: the sqrt(w_d' w_d) of U telescope around a cycle, as
    w_d = w_rev(d).  Orbits with equal per-column counts therefore share one
    amplitude, exp(counts @ [log tau; log rho]), evaluated once per class
    and gathered into catalog order; where some rho is exactly zero, the
    back-scatter factors are integer powers of rho, so those amplitudes
    come out exactly zero.
    """
    top = catalog.max_length if max_length is None else max_length
    catalog.require_depth(top)
    space = catalog.space
    c = vertex_coefficients(space.graph, lam, kind)
    if kind != "standard":
        c = c[space.terminus] * space.bond_weight
    log_tau = np.log(-1j * c)
    rho = 1j * (1.0 - c)
    ncol = c.size
    amps: list[np.ndarray] = []
    for n in range(2, top + 1):
        block = catalog._blocks.get(n)
        if block is None or block.count == 0:
            continue
        classes, index = catalog._vertex_stats(n, kind)
        passes, backs = classes[:, :ncol], classes[:, ncol:]
        if np.all(np.abs(rho) > 0.0):
            class_amp = np.exp(passes @ log_tau + backs @ np.log(rho))
        else:
            class_amp = np.exp(passes @ log_tau) * np.prod(rho[None, :] ** backs, axis=1)
        amps.append(class_amp[index])
    lengths, betas = catalog._flat_columns(top)
    if not amps:
        return lengths, betas, np.array([], dtype=np.complex128)
    return lengths, betas, np.concatenate(amps)


def _trace_powers(lengths: np.ndarray, amps: np.ndarray, top: int) -> np.ndarray:
    """t[n] = tr U^n for n = 0..top from the output of :func:`bulk_amplitudes`.

    tr U^n = sum over m dividing n of m * sum_{p in P(m)} a_p^{n/m}, for
    every n at once: each length block m is sliced out once (the arrays
    are sorted by length) and its amplitude powers a_p^r, r <= top/m, land
    in t[r m].  t[0] is left at zero.
    """
    t = np.zeros(top + 1, dtype=np.complex128)
    starts = np.searchsorted(lengths, np.arange(2, top + 2))
    for m in range(2, top + 1):
        block = amps[starts[m - 2] : starts[m - 1]]
        if block.size == 0:
            continue
        power = block
        for r in range(1, top // m + 1):
            if r > 1:
                power = power * block
            t[r * m] += m * power.sum()
    return t


def trace_power_from_orbits(
    catalog: OrbitCatalog, g: Graph, lam: complex, n: int, kind: str = "standard"
) -> complex:
    """tr U(lambda)^n summed over primitive orbits and their repetitions.

    sum over m dividing n of m * sum_{p in P(m)} a_p(lambda)^{n/m}; the
    repetition exponent n/m is required for the geometric structure of the
    log-determinant expansion (checked against matrix powers in the tests).
    A catalog enumerated on a graph other than g raises ValueError.
    """
    catalog.require_depth(n)
    catalog.require_graph(g)
    lengths, _, amps = bulk_amplitudes(catalog, lam, kind, max_length=n)
    return complex(_trace_powers(lengths, amps, n)[n])
