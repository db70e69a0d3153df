"""Small-signal AC analysis.

Linearises the circuit at a DC operating point and evaluates the
solution of

``(G + s*C) x(s) = u``,  ``s = j*omega``,

at every requested frequency, batched across the circuit's batch axis.

Instead of one stacked complex solve per frequency, each lane is
factorised once into poles and residues.  With ``A = G^-1 C`` and
``b = G^-1 u`` the system reads ``(I + s*A) x = b``.  Unknowns whose
``C`` column is zero in every lane (set ``a``) need no eigenvalues: the
dynamic unknowns (set ``d``) obey ``(I + s*A_dd) x_d = b_d`` on their own,
and ``x_a(s) = b_a - s * A_ad x_d(s)``.  One batched eigendecomposition
``A_dd = V diag(lambda) V^-1`` then gives

``x_d(s) = sum_k V[:, k] w_k / (1 + s*lambda_k)``,  ``w = V^-1 b_d``,

so a node's response over the whole grid is a sum of one term per pole
(pole ``-1/lambda_k``).  :class:`ACResult` evaluates a node only when it
is read, one pole at a time, so a sweep holds ``O(B * N^2)`` factors
plus ``(B, F)`` arrays of the nodes actually read; the full ``(B, F, N)``
solution exists only once :attr:`ACResult.x` is read.

Lanes whose eigenvector matrix is non-finite or worse-conditioned than
:data:`MAX_EIGVEC_CONDITION` (near-repeated or defective poles), lanes
whose ``G`` is singular, and circuits with no dynamic unknowns fall back
to the direct per-frequency solve.  The always-on counter
``analysis.ac.fallback_lanes`` counts them.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import SingularMatrixError
from .dc import OperatingPoint, dc_operating_point
from .mna import Assembler, _singular_lanes, solve_batched

__all__ = ["ACResult", "ac_analysis", "log_frequencies"]

#: Largest 1-norm condition number of a lane's eigenvector matrix ``V``
#: for which the pole-residue form is used; worse lanes (near-repeated or
#: defective poles) are solved directly.  Rounding in the residues grows
#: as ``cond(V) * eps``: the OTA testbench's DC servo (1 MH, 1 F) puts
#: two sub-mHz poles with nearly parallel eigenvectors, ``cond(V)`` about
#: 2.5e6, and node responses stay within 5e-10 of their peak over the
#: sweep; at this limit that extrapolates to about 2e-7.
MAX_EIGVEC_CONDITION = 1e9


def log_frequencies(f_start: float, f_stop: float,
                    points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced frequency grid, inclusive of both endpoints.

    Mirrors the SPICE ``.ac dec`` sweep specification.
    """
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), count)


def _direct_sweep(G: np.ndarray, C: np.ndarray, u: np.ndarray,
                  freqs: np.ndarray) -> np.ndarray:
    """``(B, F, N)`` solution by one stacked complex solve per frequency."""
    batch, n = u.shape
    x = np.empty((batch, freqs.size, n), dtype=complex)
    for k, freq in enumerate(freqs):
        omega = 2.0 * np.pi * freq
        x[:, k, :] = solve_batched(G + 1j * omega * C, u)
    return x


class _PoleResidue:
    """Per-lane pole-residue factorisation of ``(G + s*C) x = u``.

    Lanes flagged in ``fallback`` carry neutral factors (no residues);
    their responses come from a direct solve instead.
    """

    def __init__(self, G: np.ndarray, C: np.ndarray, u: np.ndarray) -> None:
        batch, n = u.shape
        self.dynamic = np.flatnonzero(np.any(C != 0.0, axis=(0, 1)))
        nd = self.dynamic.size
        #: Position of each unknown within the dynamic set (-1: static).
        self.slot = np.full(n, -1)
        self.slot[self.dynamic] = np.arange(nd)
        self.fallback = bad = np.full(batch, nd == 0)
        if nd == 0:
            self.A_d = np.zeros((batch, n, 0))
            self.b = np.zeros((batch, n), dtype=complex)
            self.V = np.zeros((batch, 0, 0), dtype=complex)
            self.lam = self.w = np.zeros((batch, 0), dtype=complex)
            return

        # A_d = G^-1 C[:, :, d] and b = G^-1 u in one real solve.
        rhs = np.concatenate([C[:, :, self.dynamic], u.real[..., None],
                              u.imag[..., None]], axis=-1)
        sol = _per_lane(lambda M: np.linalg.solve(M, rhs), G, bad)
        bad |= ~np.isfinite(sol).all(axis=(1, 2))
        if bad.any():
            sol = np.where(bad[:, None, None], 0.0, sol)
        A_d = sol[..., :nd]
        b = sol[..., nd] + 1j * sol[..., nd + 1]

        try:
            lam, V = np.linalg.eig(A_d[:, self.dynamic, :])
        except np.linalg.LinAlgError:  # QR iteration failed to converge
            bad[:] = True
            lam, V = np.zeros((batch, nd)), np.zeros((batch, nd, nd))
        # ``eig`` returns real arrays when every pole is real; the
        # residues must stay complex to carry the excitation's phase.
        lam = lam.astype(complex, copy=False)
        V = V.astype(complex, copy=False)
        bad |= ~(np.isfinite(V).all(axis=(1, 2)) & np.isfinite(lam).all(axis=1))
        if bad.any():
            V = np.where(bad[:, None, None], np.eye(nd), V)
        V_inv = _per_lane(np.linalg.inv, V, bad)
        condition = (np.linalg.norm(V, 1, axis=(1, 2))
                     * np.linalg.norm(V_inv, 1, axis=(1, 2)))
        bad |= ~(condition <= MAX_EIGVEC_CONDITION)

        w = np.einsum("bkj,bj->bk", V_inv, b[:, self.dynamic])
        if bad.any():
            w[bad] = 0.0
            lam[bad] = 0.0
            A_d = np.where(bad[:, None, None], 0.0, A_d)
            b[bad] = 0.0
        self.A_d, self.b, self.V, self.lam, self.w = A_d, b, V, lam, w

    def unknown(self, index: int, s: np.ndarray) -> np.ndarray:
        """Response of unknown ``index`` at the points ``s``, ``(B, F)``.

        Fallback lanes read zero.  Accumulates one pole at a time, so
        the temporaries stay ``(B, F)``.
        """
        slot = self.slot[index]
        if slot >= 0:
            residues = self.V[:, slot, :] * self.w
        else:
            residues = np.einsum("bj,bjk->bk", self.A_d[:, index, :],
                                 self.V) * self.w
        out = np.zeros((self.fallback.size, s.size), dtype=complex)
        for k in range(residues.shape[1]):
            out += residues[:, k, None] / (1.0 + self.lam[:, k, None] * s)
        if slot < 0:
            out *= -s
            out += self.b[:, index, None]
        return out


def _per_lane(solve, matrices: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``solve(matrices)`` on a stack, flagging singular lanes in ``bad``.

    A singular lane makes LAPACK refuse the whole stack; such lanes are
    marked, replaced by identities, and the stack is solved again.  When
    no single lane is to blame, every lane is marked.
    """
    try:
        return solve(matrices)
    except np.linalg.LinAlgError:
        bad[_singular_lanes(matrices) or slice(None)] = True
        eye = np.eye(matrices.shape[-1])
        return solve(np.where(bad[:, None, None], eye, matrices))


class ACResult:
    """Result of an AC sweep.

    Node responses are evaluated from the sweep's pole-residue
    factorisation when first read and cached; :attr:`x` stacks every
    unknown and is built only when it is accessed.

    Attributes
    ----------
    freqs:
        Frequency grid, shape ``(F,)`` [Hz].
    x:
        Complex solution, shape ``(B, F, N)``.
    op:
        The DC operating point the sweep was linearised at.
    """

    def __init__(self, circuit, assembler: Assembler, op: OperatingPoint,
                 freqs: np.ndarray, x: np.ndarray | None = None, *,
                 factors: _PoleResidue | None = None,
                 direct: np.ndarray | None = None) -> None:
        self.circuit = circuit
        self.assembler = assembler
        self.op = op
        self.freqs = freqs
        self._x = x
        self._factors = factors
        # ``(n_fallback, F, N)`` direct solution of the fallback lanes.
        self._direct = direct
        self._cache: dict[int, np.ndarray] = {}

    @property
    def batch(self) -> int:
        if self._x is not None:
            return self._x.shape[0]
        return self._factors.fallback.size

    @property
    def x(self) -> np.ndarray:
        """Complex solution of every unknown, shape ``(B, F, N)``."""
        if self._x is None:
            self._x = np.stack([self._unknown(index)
                                for index in range(self.assembler.n)],
                               axis=-1)
        return self._x

    def _unknown(self, index: int) -> np.ndarray:
        if self._x is not None:
            return self._x[:, :, index]
        cached = self._cache.get(index)
        if cached is None:
            factors = self._factors
            cached = factors.unknown(index, 2j * np.pi * self.freqs)
            if self._direct is not None:
                cached[factors.fallback] = self._direct[:, :, index]
            self._cache[index] = cached
        return cached

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage(s), shape ``(B, F)``; ground is zeros."""
        index = self.assembler.topology.index_of(node)
        if index < 0:
            return np.zeros((self.batch, self.freqs.size), dtype=complex)
        return self._unknown(index)

    def transfer(self, out_node: str, in_node: str | None = None) -> np.ndarray:
        """Voltage transfer function ``V(out)/V(in)``, shape ``(B, F)``.

        With ``in_node=None`` the raw output voltage is returned, which
        equals the transfer function when the stimulus has unit AC
        magnitude (the usual testbench convention).
        """
        out = self.v(out_node)
        if in_node is None:
            return out
        denominator = self.v(in_node)
        return out / np.where(np.abs(denominator) < 1e-300, 1e-300, denominator)

    def magnitude_db(self, out_node: str, in_node: str | None = None) -> np.ndarray:
        """``20*log10 |H|``, shape ``(B, F)``."""
        h = np.abs(self.transfer(out_node, in_node))
        return 20.0 * np.log10(np.maximum(h, 1e-300))

    def phase_deg(self, out_node: str, in_node: str | None = None,
                  unwrap: bool = True) -> np.ndarray:
        """Phase in degrees, shape ``(B, F)``; unwrapped along frequency."""
        phase = np.angle(self.transfer(out_node, in_node))
        if unwrap:
            phase = np.unwrap(phase, axis=-1)
        return np.degrees(phase)


def ac_analysis(circuit, freqs, *, op: OperatingPoint | None = None,
                assembler: Assembler | None = None) -> ACResult:
    """Run an AC sweep of ``circuit`` over ``freqs``.

    Parameters
    ----------
    freqs:
        Frequency grid [Hz]; see :func:`log_frequencies`.
    op:
        Pre-computed operating point (skips the DC solve when given --
        essential inside Monte-Carlo loops where the caller wants one DC
        solve reused across measurements).

    Raises
    ------
    SingularMatrixError
        If a lane that falls back to the direct solve is singular at some
        frequency; ``lane_indices`` are lanes of the circuit's batch.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if op is None:
        op = dc_operating_point(circuit, assembler=assembler)
    assembler = assembler or op.assembler

    G, C, excitation = assembler.ac_system(op.x)
    factors = _PoleResidue(G, C, excitation)
    lanes = np.flatnonzero(factors.fallback)
    direct = None
    if lanes.size:
        telemetry.counter_add("analysis.ac.fallback_lanes", int(lanes.size))
        try:
            direct = _direct_sweep(G[lanes], C[lanes], excitation[lanes],
                                   freqs)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                str(exc), lane_indices=None if exc.lane_indices is None
                else lanes[list(exc.lane_indices)]) from exc
    return ACResult(circuit, assembler, op, freqs, factors=factors,
                    direct=direct)
