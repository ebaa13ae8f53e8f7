"""Reference oracles for the tests: slow, direct forms of what the library computes in bulk."""

import numpy as np

from graphscatter.classical import ClassicalMap
from graphscatter.graph import Graph
from graphscatter.orbits import PrimitiveOrbit
from graphscatter.scattering import evolution_operator


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


def trace_powers_by_length(lengths: np.ndarray, amps: np.ndarray, top: int) -> np.ndarray:
    """t[n] = tr U^n for n = 0..top, one fresh array per power of each length block."""
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


def evolve(cmap: ClassicalMap, rho0: np.ndarray, steps: int,
           return_trajectory: bool = False):
    """Iterate rho -> M rho; preserves non-negativity and the l1 norm."""
    rho = np.asarray(rho0, dtype=float)
    if rho.shape != (cmap.dim,):
        raise ValueError(f"distribution must have shape ({cmap.dim},)")
    if np.any(rho < 0) or abs(rho.sum() - 1.0) > 1e-12:
        raise ValueError("initial state must be a probability vector")
    traj = [rho]
    for _ in range(steps):
        rho = cmap.matrix @ rho
        traj.append(rho)
    return traj if return_trajectory else rho
