"""Split-operator reference evolution of the quantum sawtooth map.

One map step is the unitary

    U = exp(-i T n^2 / 2) . exp(i k (theta - pi)^2 / 2),

applied kick first: transform to the angle basis, multiply the
quadratic kick phase, transform back, multiply the free-rotation phase.
Both factors are diagonal in their own basis, so a step costs two FFTs.

The "classical error" channel perturbs the kick strength only: step t
uses k + delta_k(t) with delta_k(t) drawn uniformly from
[-delta_k_max, +delta_k_max], one draw per map step.  This channel has
a classical limit (it perturbs the map parameter), in contrast to the
per-gate noise of :mod:`sawtoothsim.circuit`.

``BatchPropagator`` holds precomputed phase tables and advances a whole
(members, N) ensemble per call.  A kick detuning gives each member its
own kick table, built from O(sqrt(N) log N) exponentials instead of N
(see the class).  ``step_exact`` advances one (N,) momentum array
with one exponential per amplitude and explicit basis changes; it is
the array reference that ``BatchPropagator`` and the gate circuit are
tested against.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .states import LatticeParams, angle_values, momentum_values

__all__ = [
    "step_exact",
    "BatchPropagator",
]


def step_exact(amps: np.ndarray, lattice: LatticeParams,
               delta_k: float = 0.0) -> np.ndarray:
    """One map step of an (N,) momentum array at kick strength k + delta_k.

    Applies the two diagonal factors in their own bases through explicit
    basis changes, psi(theta_l) = sqrt(N) (-1)^l ifft(psi)_l and back,
    with one exponential per amplitude, so it serves as the test
    reference for :class:`BatchPropagator` and the gate circuit.
    Returns a new array.
    """
    N = lattice.N
    if np.shape(amps) != (N,):
        raise ValueError(f"amps shape {np.shape(amps)} does not match N={N}")
    signs = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    theta = angle_values(lattice)
    kick = np.exp(1j * (lattice.k + delta_k) * (theta - math.pi) ** 2 / 2.0)
    kicked = math.sqrt(N) * signs * np.fft.ifft(amps) * kick
    n = momentum_values(lattice)
    rotation = np.exp(-1j * lattice.T * n.astype(float) ** 2 / 2.0)
    return np.fft.fft(signs * kicked) / math.sqrt(N) * rotation


# amplitudes per row tile of a step: 16 members at n_q = 12, 1 MB, so
# a tile's two FFTs, its kick table and its phase multiplies all run in
# one core's L2 cache, and a step reads and writes its block once; at
# small n_q one tile holds many members, so the fixed cost of building
# a kick table is paid rarely; a block of one tile or less can build the
# tables of several steps at once in this budget (step_factors)
_KICK_TILE_AMPS = 1 << 16


class BatchPropagator:
    """Vectorized exact evolution of a (members, N) amplitude block.

    The (-1)^l twiddles of the two basis changes cancel between the
    inverse and forward transforms inside one step, leaving

        psi <- rot * fft(kick * ifft(psi))

    with kick and rot the diagonal phase tables.

    A member kicked with strength s = k + delta_k needs the phases
    exp(i s c (l - N/2)^2), c = 2 pi^2 / N^2.  Writing l = h S + v with
    S = 2^floor(n_q / 2) and H = N / S rows, the exponent splits into
    a row term c (h - H/2)^2 S^2, a column term c v (v - N) and a cross
    term 2 c S h v.  The (H, S) table of the cross term is built by
    doubling over the bits of h, starting from the column term, and
    then multiplied by the row term, so a member's table costs
    H + S + S log2(H) exponentials (512 at n_q = 12, where N = 4096)
    and each entry is a product of at most log2(H) + 2 of them.

    A step runs tile by tile over rows of 2^16 amplitudes in all: each
    tile goes through ifft, kick, fft and rotation in place while it
    stays in cache.  The FFTs act per row and every other operation,
    the table builds included, is elementwise, so a member's row does
    not depend on its tile or its block.  The noiseless ``kick_phase``
    is built by the same code at s = k: a member whose detuning is zero
    then gets the noiseless kick bit for bit, which keeps a
    zero-amplitude noisy branch identical to the noiseless one.

    :meth:`step` builds each tile's kick tables just before it applies
    them.  On small blocks, where a step costs numpy dispatch rather
    than arithmetic, :meth:`step_factors` builds the tables of several
    steps in one call instead, and :meth:`step_with` applies one step
    of them, bit for bit what :meth:`step` gives: the pair the gate
    channel's :class:`~sawtoothsim.circuit.CircuitEngine` has, with the
    same ``param_shape`` (() here: one detuning) and ``table_entries``
    (N here) per member and step.
    """

    # amplitude rows a step holds per member besides its block: none, it
    # steps in place (a tile's kick tables are counted per tile)
    step_rows = 0

    def __init__(self, lattice: LatticeParams):
        self.lattice = lattice
        n_q, N = lattice.n_q, lattice.N
        S = 1 << (n_q // 2)
        H = N // S
        c = 2.0 * math.pi ** 2 / N ** 2
        h = np.arange(H, dtype=float)
        v = np.arange(S, dtype=float)
        self._kick_shape = H, S
        self._kick_tile = max(1, _KICK_TILE_AMPS // N)
        # per member and step: one kick detuning, and N kick-table entries
        self.param_shape = ()
        self.table_entries = N
        # exponents per unit kick strength, in the order row terms,
        # column terms, doubling factors
        self._kick_coef = 1j * np.concatenate(
            [c * ((h - H / 2) * S) ** 2, c * v * (v - N)]
            + [(2.0 * c * S * (1 << b)) * v for b in range(H.bit_length() - 1)])
        self.kick_phase = self._kick_table(np.array([lattice.k])).reshape(N)
        n = momentum_values(lattice).astype(float)
        self.rot_phase = np.exp(-1j * lattice.T * n * n / 2.0)

    @cached_property
    def _inverse(self) -> tuple:
        """The phases of :meth:`step_inverse`, conjugated once, on first use.

        A curve never inverts a step, so it does not hold them.
        """
        return self.rot_phase.conj(), self.kick_phase.conj()

    def _kick_table(self, strength: np.ndarray) -> np.ndarray:
        """(H, members, S) kick phases for the kick strengths ``strength``.

        Every exponent comes from one ``np.exp`` call.  Rows of h lead
        the layout so that each doubling level writes a block disjoint
        from the one it reads: numpy buffers a multiply whose output
        may overlap an input and rounds it differently, which would
        make a member's row depend on the size of its tile.
        """
        H, S = self._kick_shape
        m = len(strength)
        e = np.exp(np.multiply.outer(strength, self._kick_coef))
        table = np.empty((H, m, S), dtype=complex)
        table[0] = e[:, H:H + S]
        steps = e[:, H + S:].reshape(m, -1, S)
        for b in range(steps.shape[1]):
            np.multiply(table[:1 << b], steps[:, b],
                        out=table[1 << b:2 << b])
        table *= e[:, :H].T[:, :, None]
        return table

    def _tiles(self, amps: np.ndarray) -> list:
        """Row slices of the tiles of a (members, N) block.

        Anything but a C-contiguous complex (members, N) array is refused
        with ValueError, since a step writes into its tiles as views.
        """
        N = self.lattice.N
        if not (isinstance(amps, np.ndarray) and amps.ndim == 2
                and amps.shape[1] == N and amps.dtype == complex
                and amps.flags.c_contiguous):
            raise ValueError(
                f"amps must be a C-contiguous complex (members, {N}) array, "
                f"not {getattr(amps, 'dtype', type(amps).__name__)} of shape "
                f"{np.shape(amps)}")
        tile = self._kick_tile
        return [slice(i, i + tile) for i in range(0, len(amps), tile)]

    def _advance(self, amps: np.ndarray, tables=None) -> np.ndarray:
        """One step of ``amps``, in place, tile by tile; returns ``amps``.

        ``tables(rows)`` gives the (H, rows, S) kick phases of a tile's
        rows; without it every row gets the noiseless kick.
        """
        H, S = self._kick_shape
        for rows in self._tiles(amps):
            work = amps[rows]
            np.fft.ifft(work, axis=-1, out=work)
            if tables is None:
                work *= self.kick_phase
            else:
                view = work.reshape(-1, H, S)
                view *= tables(rows).transpose(1, 0, 2)
            np.fft.fft(work, axis=-1, out=work)
            work *= self.rot_phase
        return amps

    def step(self, amps: np.ndarray, delta_k=None) -> np.ndarray:
        """Advance a (members, N) block one map step; returns ``amps``.

        ``amps`` may be overwritten: the step runs in place.  delta_k is
        None (noiseless) or a length-members vector of kick
        perturbations, one per ensemble member; any other length is
        refused with ValueError, before ``amps`` is touched.  Each tile
        builds its members' kick tables just before it applies them.
        """
        if delta_k is None:
            return self._advance(amps)
        strength = self.lattice.k + np.asarray(delta_k, float).reshape(-1)
        if len(strength) != len(amps):
            raise ValueError(
                f"{len(strength)} detunings for {len(amps)} members")
        return self._advance(
            amps, lambda rows: self._kick_table(strength[rows]))

    def step_factors(self, delta_k: np.ndarray) -> np.ndarray:
        """Kick tables of every step in ``delta_k``, built in one pass.

        delta_k: (steps, members) kick perturbations.  The steps x
        members strengths go through one :meth:`_kick_table` call, entry
        by entry what :meth:`step` builds per tile, so the tables hold
        steps * members * N entries.  Returns what :meth:`step_with`
        takes.
        """
        delta_k = np.asarray(delta_k, float)
        if delta_k.ndim != 2:
            raise ValueError(f"delta_k has shape {delta_k.shape}, expected "
                             f"(steps, members)")
        H, S = self._kick_shape
        table = self._kick_table(self.lattice.k + delta_k.reshape(-1))
        return table.reshape(H, *delta_k.shape, S)

    def step_with(self, amps: np.ndarray, tables: np.ndarray,
                  step: int) -> np.ndarray:
        """``amps`` advanced by step ``step`` of :meth:`step_factors`.

        Bit for bit what :meth:`step` gives for that step's detunings;
        ``amps`` may be overwritten and is returned.
        """
        table = tables[:, step]
        if table.shape[1] != len(amps):
            raise ValueError(
                f"{table.shape[1]} detunings for {len(amps)} members")
        return self._advance(amps, lambda rows: table[:, rows])

    def step_inverse(self, amps: np.ndarray) -> np.ndarray:
        """Inverse of the noiseless :meth:`step`, in place; returns ``amps``."""
        rot, kick = self._inverse
        for rows in self._tiles(amps):
            work = amps[rows]
            work *= rot
            np.fft.ifft(work, axis=-1, out=work)
            work *= kick
            np.fft.fft(work, axis=-1, out=work)
        return amps
