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
affordable; PrimitiveOrbit views are materialized on demand.

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
_CHUNK_ROWS = 1_000_000


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
        self._flat: tuple[np.ndarray, np.ndarray] | None = None

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

        Both are int64 and lambda-independent: built once per catalog as
        read-only arrays, then sliced for a smaller top.
        """
        if self._flat is None:
            blocks = self._blocks.values()
            lengths = np.repeat(
                np.array(list(self._blocks), dtype=np.int64), [b.count for b in blocks]
            )
            betas = np.zeros(lengths.size, dtype=np.int64)
            if blocks:
                np.concatenate([b.beta for b in blocks], out=betas)
            self._flat = (_read_only(lengths), _read_only(betas))
        lengths, betas = self._flat
        end = int(np.searchsorted(lengths, top, side="right"))
        return lengths[:end], betas[:end]

    def require_depth(self, n: int) -> None:
        if n > self.max_length:
            raise CatalogDepthError(
                f"catalog enumerated to length {self.max_length}, need {n}"
            )

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
    (1992) 414), the prefixes of Lyndon words, from each start bond s.
    Every walk a of t bonds carries its period p, the length of its longest
    Lyndon prefix; a following bond c extends it only if c >= a[t-p], and
    the period becomes t+1 if c > a[t-p] (else it stays p).  A walk is an
    orbit iff p == t and its last bond leads back into s, so no rotation
    test is needed, and the last level generates only those closing steps.
    Walks may revisit bonds.  The search is vectorized over frontiers of at
    most _CHUNK_ROWS walks; successors come in ascending order and the
    pieces of a frontier are searched first to last, so each length block
    is emitted already in lexicographic (catalog) order.

    Raises CatalogSizeError as soon as the orbit count passes max_orbits.
    """
    if max_length < 2:
        raise ValueError("max_length must be at least 2")
    catalog = OrbitCatalog(space, max_length, no_backtrack)
    nb = space.num_bonds
    if nb == 0:
        return catalog
    dtype = np.int16 if nb < 32000 else np.int32
    succ_pad = space.successor_table().astype(dtype)
    rev = space.reversal.astype(dtype)

    closed: dict[int, list[np.ndarray]] = {n: [] for n in range(2, max_length + 1)}
    total = 0

    for start in range(nb):
        # closes[c]: a walk ending on bond c returns into the start bond;
        # the trailing False absorbs the -1 padding of succ_pad
        closes = np.append(space.terminus == space.origin[start], False)
        if no_backtrack:
            closes[rev[start]] = False
        stack = [(np.array([[start]], dtype=dtype), np.ones(1, dtype=np.int32))]
        while stack:
            walks, period = stack.pop()
            m, t = walks.shape
            last = walks[:, -1]
            cand = succ_pad[last]  # (m, max_deg), ascending, padded with -1
            floor = walks[np.arange(m), t - period][:, None]
            ok = cand >= floor
            if no_backtrack:
                ok &= cand != rev[last][:, None]
            lyndon = cand > floor
            last_level = t + 1 == max_length
            if last_level:
                ok &= lyndon & closes[cand]
            rows, cols = np.nonzero(ok)
            if rows.size == 0:
                continue
            ext = np.empty((rows.size, t + 1), dtype=dtype)
            ext[:, :-1] = walks[rows]
            ext[:, -1] = cand[rows, cols]
            grew = lyndon[rows, cols]
            found = ext if last_level else ext[grew & closes[ext[:, -1]]]
            if found.shape[0]:
                closed[t + 1].append(found)
                total += found.shape[0]
                if total > max_orbits:
                    raise CatalogSizeError(max_orbits, t + 1)
            if last_level:
                continue
            ext_period = np.where(grew, np.int32(t + 1), period[rows])
            # the first piece goes on top: pieces are searched in order
            for lo in reversed(range(0, rows.size, _CHUNK_ROWS)):
                stack.append((ext[lo : lo + _CHUNK_ROWS], ext_period[lo : lo + _CHUNK_ROWS]))

    for n in range(2, max_length + 1):
        parts = closed.pop(n)
        if not parts:
            continue
        walks = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        steps = walks.T.copy()  # bond of step k in contiguous row k
        beta = np.zeros(walks.shape[0], dtype=np.int32)
        for k in range(n):
            beta += steps[(k + 1) % n] == rev[steps[k]]
        catalog._blocks[n] = _LengthBlock(walks, beta)
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
    """
    catalog.require_depth(n)
    lengths, _, amps = bulk_amplitudes(catalog, lam, kind, max_length=n)
    return complex(_trace_powers(lengths, amps, n)[n])
