"""Brute-force dense simulator used as ground truth for small instances.

Keeps full statevectors (n <= 12) or density matrices and replays the exact
same channels, measurements, and recorded local corrections that the
graph-level pipeline tracks symbolically.  Qubit order is big-endian over the
``qubits`` tuple: the first listed vertex owns the most significant bit
(``DenseState._bit`` is that rule's one home).

The data stays real (float64) until a truly complex operator arrives (a Y
bra or a SQRT_Z(_DAG) correction); numpy's type promotion takes it from there.

A state's mode is read off its data: a 1-D statevector or a 2-D density
matrix.  A layer of Z-type noise is one gather of its factor f(i ^ j) and one
elementwise product on the density matrix; a projection or a correction is
one 2 x 2 mix of the halves where the qubit is 0 and 1 (``_apply``, on the
ket index and for a density matrix on the bra index too).

:func:`crosscheck_points` does not replay records forward like this.  It
replays them once per batch of points, backward from the n_f of n qubits they
leave (``_adjoint_amplitudes``), on a 2^n x 2^n_f array in O(n 2^(n + n_f))
time.  Each point then costs its channel factor, one sign-row gather per
branch slot (``_channel_factor``), and one O(2^(n + 2 n_f)) Gram product
(``_replay_adjoint``), against O(4^n) forward: faster for every default plan,
slower when most qubits are left.  :func:`crosscheck` is its one-point call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graphstate import Graph, MeasurementRecord, PauliString, _bits, _mask, _pauli_basis, component_key
# Unused here, but bench/tracing.py wraps it at this module's name.
from .graphstate import measure_pauli  # noqa: F401
from .gtl import GtlState
from .noise import NoiseMap, component_fidelities, propagate, standard_noise
from .rolling import ResolutionPlan, resolve

__all__ = [
    "CORRECTION_UNITARIES",
    "CrosscheckReport",
    "DenseState",
    "MAX_CROSSCHECK_QUBITS",
    "ZeroProbabilityError",
    "apply_channel",
    "crosscheck",
    "crosscheck_points",
    "dense_graph_state",
    "graph_state_overlap",
    "measure_dense",
    "partial_trace",
    "vectors_equal_up_to_phase",
]

MAX_DENSE_QUBITS = 12

#: Largest resource :func:`crosscheck` (and so ``verify``) checks against the dense replay.
MAX_CROSSCHECK_QUBITS = 10

_H = math.sqrt(0.5)

#: Concrete unitaries for the correction tags carried by measurement records:
#: exp(+-i pi/4 P) = (I +- iP) / sqrt(2).  iY is real, so the Y rotations are
#: real matrices.
CORRECTION_UNITARIES: dict[str, np.ndarray] = {
    "Z": np.diag([1.0, -1.0]),
    "SQRT_Z": _H * np.diag([1 + 1j, 1 - 1j]),
    "SQRT_Z_DAG": _H * np.diag([1 - 1j, 1 + 1j]),
    "SQRT_Y": _H * np.array([[1.0, 1.0], [-1.0, 1.0]]),
    "SQRT_Y_DAG": _H * np.array([[1.0, -1.0], [1.0, 1.0]]),
}

_BASIS_KETS: dict[tuple[str, int], np.ndarray] = {
    ("X", 1): np.array([1.0, 1.0]) / math.sqrt(2),
    ("X", -1): np.array([1.0, -1.0]) / math.sqrt(2),
    ("Y", 1): np.array([1.0, 1.0j]) / math.sqrt(2),
    ("Y", -1): np.array([1.0, -1.0j]) / math.sqrt(2),
    ("Z", 1): np.array([1.0, 0.0]),
    ("Z", -1): np.array([0.0, 1.0]),
}


# Every index of the largest dense state, and the parity (-1)^popcount(i) of
# each; a Z string's diagonal over n qubits is the parity of (i & mask) for the
# first 2**n indices i, one gather per string.
_INDEX = np.arange(2 ** MAX_DENSE_QUBITS)
_PARITY = np.ones(1)
for _ in range(MAX_DENSE_QUBITS):
    _PARITY = np.concatenate([_PARITY, -_PARITY])


class ZeroProbabilityError(RuntimeError):
    """Raised when a projective branch has vanishing probability."""


@dataclass
class DenseState:
    """Dense statevector (1-D ``data``) or density matrix (2-D) over an explicit qubit id order."""

    qubits: tuple[int, ...]
    data: np.ndarray

    @property
    def mode(self) -> str:
        """"density" for a 2-D ``data``, else "vector"."""
        return "density" if self.data.ndim == 2 else "vector"

    @property
    def n(self) -> int:
        return len(self.qubits)

    def position(self, v: int) -> int:
        return self.n - self.local_mask((v,)).bit_length()

    @functools.cached_property
    def _bit(self) -> dict[int, int]:
        """Each qubit's bit in an index: the first listed qubit owns the top bit."""
        return {v: 1 << (self.n - 1 - i) for i, v in enumerate(self.qubits)}

    def local_mask(self, vertices: Iterable[int]) -> int:
        """The union of the bits of ``vertices`` in an index; a repeated vertex sets its bit once."""
        mask = 0
        try:
            for v in vertices:
                mask |= self._bit[v]
        except KeyError as err:
            raise ValueError(f"qubit {err.args[0]!r} is not in the dense state") from None
        return mask

    def copy(self) -> DenseState:
        return DenseState(self.qubits, self.data.copy())

    def to_density(self) -> DenseState:
        if self.mode == "density":
            return self.copy()
        return DenseState(self.qubits, np.outer(self.data, self.data.conj()))

    def validate(self, tol: float = 1e-12) -> None:
        if self.mode == "vector":
            norm = float(np.linalg.norm(self.data))
            if abs(norm - 1.0) > tol:
                raise ValueError(f"statevector norm {norm} is not 1")
        else:
            tr = complex(np.trace(self.data))
            if abs(tr - 1.0) > tol:
                raise ValueError(f"density trace {tr} is not 1")
            if not np.allclose(self.data, self.data.conj().T, atol=1e-10):
                raise ValueError("density matrix is not Hermitian")
            eigs = np.linalg.eigvalsh(self.data)
            if eigs.min() < -1e-10:
                raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")

    def z_signs(self, support: Iterable[int]) -> np.ndarray:
        """Diagonal of the Z string on ``support`` as a +-1 vector."""
        return _PARITY[_INDEX[: 2 ** self.n] & self.local_mask(support)]

    def expectation(self, pauli: PauliString) -> complex:
        """<psi|P|psi> (vector mode) or tr(P rho) (density mode)."""
        flip = self.local_mask(pauli.x_support)
        phase = self.z_signs(pauli.z_support) * complex(pauli.phase)
        for v in pauli.x_support & pauli.z_support:
            # Y = iXZ on that qubit; the Z sign above already acted on the
            # source index, so only the i remains.
            phase *= 1j
        idx = _INDEX[: 2 ** self.n]
        if self.mode == "vector":
            out = np.zeros(self.data.shape, dtype=complex)
            out[idx ^ flip] = phase * self.data
            return complex(np.vdot(self.data, out))
        return complex(np.sum(phase * self.data[idx, idx ^ flip]))


def dense_graph_state(g: Graph, mode: str = "vector") -> DenseState:
    """|+>^n with one controlled-Z per edge, over sorted live vertex ids."""
    n = g.n
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    state = DenseState(tuple(g.vertices()), np.full(2 ** n, 1 / math.sqrt(2 ** n)))
    idx = _INDEX[: 2 ** n]
    for edge in g.edges():
        both = state.local_mask(edge)
        state.data[idx & both == both] *= -1.0
    if mode == "vector":
        return state
    if mode == "density":
        return state.to_density()
    raise ValueError(f"unknown dense mode {mode!r}")


def apply_channel(state: DenseState, *noise_maps: NoiseMap) -> DenseState:
    """Apply Z-type mixtures to a density-mode state; trace is preserved.

    A mixture sum_b p_b Z_b rho Z_b multiplies rho_ij by g(i ^ j), where
    g(x) = sum_b p_b (-1)^{|s_b & x|}: Z_b gives the ket index i the sign
    (-1)^{|s_b & i|} and the bra index j the sign (-1)^{|s_b & j|}.  These
    channels commute, so the maps compose into one factor f = prod_m g_m over
    the 2^n indices, and the whole layer is one gather of the matrix f(i ^ j)
    and one elementwise product.  This forward replay is the plain reference
    the acceptance and oracle tests compare against.  Support qubits absent
    from the state are ignored.
    """
    if state.mode != "density":
        raise ValueError("channels act on density-mode states")
    index = _INDEX[: 2 ** state.n]
    return DenseState(state.qubits, _channel_factor(state, noise_maps)[index[:, None] ^ index] * state.data)


def _channel_factor(state: DenseState, noise_maps: tuple[NoiseMap, ...]) -> np.ndarray:
    """f(k) = prod_m sum_b p_b (-1)^{|s_b & k|} over the 2^n indices k; support
    qubits absent from the state are ignored.

    One gather per branch slot b takes every map's b-th sign row, a map with
    fewer branches padded with zero-weight rows at the end.  Branches are added
    in branch order and maps multiplied in map order: the per-branch loop's bits.
    """
    live, width = _mask(state.qubits), max((len(m.branches) for m in noise_maps), default=0)
    rows = [(m.branches + ((0.0, 0),) * width)[:width] for m in noise_maps]
    probs = np.array([[prob for prob, _ in row] for row in rows]).reshape(len(rows), width)
    masks = np.array([[state.local_mask(_bits(s & live)) for _, s in row] for row in rows], dtype=np.intp)
    index = _INDEX[: 2 ** state.n]
    sums = np.zeros((len(rows), len(index)))
    for b in range(width):
        sums += probs[:, b, None] * _PARITY[masks[:, b, None] & index]
    return np.multiply.reduce(sums, axis=0)


def _apply(data: np.ndarray, pos: int, mat: np.ndarray, density: bool) -> np.ndarray:
    """Apply a k x 2 matrix (a 1 x 2 bra projects) to qubit ``pos`` of the first
    index (of a statevector, or of each column of a 2-D array) and, for a density
    matrix, to the bra index as its conjugate.

    Seen as (lead, 2, rest), an index splits into the halves where the qubit is
    0 and 1, and output row j is m[j, 0] * half 0 + m[j, 1] * half 1.
    """
    rows = len(data) // 2 * len(mat)
    shape = (rows, rows) if density else (rows, *data.shape[1:])
    sides = ((1 << pos, mat), (rows << pos, mat.conj())) if density else ((1 << pos, mat),)
    for lead, m in sides:
        t = data.reshape(lead, 2, -1)
        data = np.empty((lead, len(m), t.shape[2]), np.result_type(t, m))
        for j, (m0, m1) in enumerate(m):
            # A zero coefficient is skipped: a Z-basis bra is one pass.
            np.multiply(t[:, 0] if m0 else t[:, 1], m0 or m1, out=data[:, j])
            if m0 and m1:
                data[:, j] += m1 * t[:, 1]
    return data.reshape(shape)


def measure_dense(
    state: DenseState,
    a: int,
    basis: str,
    outcome: int = 1,
    corrections: tuple[tuple[int, str], ...] = (),
) -> DenseState:
    """Project qubit ``a``, renormalize, apply corrections, drop the qubit.

    Each correction on another qubit is one :func:`_apply` pass, in record order.
    A bad basis, outcome, qubit or tag raises a ValueError naming it.
    """
    basis = _pauli_basis(basis)
    if outcome not in (1, -1):
        raise ValueError(f"measurement outcome must be +1 or -1, got {outcome!r}")
    state.local_mask((a, *(c for c, _ in corrections)))
    for _, tag in corrections:
        if tag not in CORRECTION_UNITARIES:
            raise ValueError(f"unknown correction tag {tag!r}")
    bra = _BASIS_KETS[(basis, outcome)].conj()[None, :]
    density = state.mode == "density"
    data = _apply(state.data, state.position(a), bra, density)
    if density:
        prob = norm = float(np.trace(data).real)
    else:
        prob = float(np.vdot(data, data).real)
        norm = math.sqrt(prob)
    if prob < 1e-14:
        raise ZeroProbabilityError(f"outcome {outcome} of {basis} on {a} has probability ~0")
    data /= norm
    out = DenseState(tuple(v for v in state.qubits if v != a), data)
    for v, tag in corrections:
        if v != a:
            out.data = _apply(out.data, out.position(v), CORRECTION_UNITARIES[tag], density)
    return out


def _wht(data: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the first axis, in place: out[x] = sum_i (-1)^{|x & i|} data[i]."""
    for k in range(1, len(data).bit_length()):
        t = data.reshape(len(data) >> k, 2, -1)
        low = t[:, 0] + t[:, 1]
        np.subtract(t[:, 0], t[:, 1], out=t[:, 1])
        t[:, 0] = low
    return data


def _adjoint_amplitudes(ket: DenseState, records: tuple[MeasurementRecord, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """The qubits that :func:`measure_with_record` leaves after ``records`` on the vector
    ``ket``, and the amplitudes Z = WHT(psi * conj(W)) that :func:`_replay_adjoint` reads.

    The records compose to a map M onto the surviving qubits.  W = M^dagger is built from
    their identity: record by record, last first, the adjoint corrections in reverse order,
    then the measured qubit put back as its basis ket.  Neither depends on the noise, so a
    batch of points builds them once.
    """
    gone = {rec.measured for rec in records}
    qubits = [v for v in ket.qubits if v not in gone]
    w = np.eye(2 ** len(qubits))
    for rec in reversed(records):
        for v, tag in reversed(rec.corrections):
            if v != rec.measured:
                w = _apply(w, qubits.index(v), CORRECTION_UNITARIES[tag].conj().T, False)
        pos = sum(ket._bit[v] > ket._bit[rec.measured] for v in qubits)
        basis_ket = _BASIS_KETS[(rec.basis, rec.outcome)][:, None]
        w = (w.reshape(1 << pos, 1, -1) * basis_ket).reshape(-1, w.shape[1])
        qubits.insert(pos, rec.measured)
    return tuple(v for v in ket.qubits if v not in gone), _wht(ket.data[:, None] * w.conj())


def _replay_adjoint(qubits: tuple[int, ...], z: np.ndarray, factor: np.ndarray) -> DenseState:
    """The state the records behind :func:`_adjoint_amplitudes` ``(qubits, z)`` leave under the
    noise layer whose :func:`_channel_factor` is ``factor``.

    The noise layer is sum_x q(x) Z^x |psi><psi| Z^x with q = WHT(f) / 2^n, so
    M rho M^dagger = Z^T diag(q) conj(Z).

    ZeroProbabilityError is raised when the joint probability of the records is below 1e-14.
    measure_dense puts that floor on each record's conditional probability instead, so some
    runs of unlikely records pass there and raise here: each amplitude here is one signed sum
    over the whole ket, and its rounding error does not shrink with the joint probability.
    """
    rho = (z.T * _wht(factor / factor.size)) @ z.conj()
    prob = float(np.trace(rho).real)
    if prob < 1e-14:
        raise ZeroProbabilityError("the recorded outcomes have probability ~0")
    return DenseState(qubits, rho / prob)


def measure_with_record(state: DenseState, record: MeasurementRecord) -> DenseState:
    """Replay a graph-level measurement record on the dense state."""
    return measure_dense(
        state, record.measured, record.basis, record.outcome, record.corrections
    )


def partial_trace(state: DenseState, keep: frozenset[int]) -> DenseState:
    """Density-mode reduction onto the given qubit ids, each of which must be in the state."""
    state.local_mask(keep)
    data = state.data if state.mode == "density" else np.outer(state.data, state.data.conj())
    qubits = list(state.qubits)
    n = len(qubits)
    for v in [q for q in state.qubits if q not in keep][::-1]:
        pos = qubits.index(v)
        t = data.reshape([2] * (2 * n))
        t = np.trace(t, axis1=pos, axis2=n + pos)
        n -= 1
        data = t.reshape(2 ** n, 2 ** n)
        qubits.pop(pos)
    return DenseState(tuple(qubits), data)


def graph_state_overlap(state: DenseState, g: Graph) -> float:
    """<G|rho|G> for the graph state on exactly the state's qubits."""
    if tuple(g.vertices()) != state.qubits:
        raise ValueError("graph vertices must match the dense state's qubit order")
    target = dense_graph_state(g)
    if state.mode == "vector":
        return float(abs(np.vdot(target.data, state.data)) ** 2)
    return float((target.data.conj() @ state.data @ target.data).real)


def vectors_equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """Amplitude-wise equality of unit vectors up to one global phase."""
    overlap = np.vdot(u, v)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(u * phase - v)) <= tol)


def dense_component_fidelity(state: DenseState, g: Graph, comp: frozenset[int]) -> float:
    """Fidelity of the reduced state on one component against its graph state."""
    sub = g.copy()
    for v in set(g.vertices()) - comp:
        sub.delete_vertex(v)
    return graph_state_overlap(partial_trace(state, comp), sub)


@dataclass(frozen=True)
class CrosscheckEntry:
    component: tuple[int, ...]
    fidelity_symbolic: float
    fidelity_dense: float

    @property
    def delta(self) -> float:
        return abs(self.fidelity_symbolic - self.fidelity_dense)


@dataclass(frozen=True)
class CrosscheckReport:
    entries: tuple[CrosscheckEntry, ...]
    tolerance: float = 1e-9

    @property
    def max_delta(self) -> float:
        return max((e.delta for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_delta < self.tolerance


def crosscheck(
    state: GtlState,
    plan: ResolutionPlan,
    p: float = 1.0,
    t_ms: float = 1.0,
    big_t_ms: float = math.inf,
) -> CrosscheckReport:
    """Run the noise pipeline symbolically and densely at one point; compare fidelities.

    The one-point call of :func:`crosscheck_points`, with its checks and texts.
    """
    return crosscheck_points(state, plan, [(p, t_ms, big_t_ms, None)])[0]


def crosscheck_points(state: GtlState, plan: ResolutionPlan, points) -> tuple[CrosscheckReport, ...]:
    """One :class:`CrosscheckReport` per ``(p, t_ms, big_t_ms, qubit_times_ms)`` point, in order.

    Both paths start from the same :func:`~entroll.noise.standard_noise` maps attached to the
    undisturbed resource and execute the same plan with forced "+" outcomes.  The symbolic
    path propagates each point's maps step by step.  The dense path replays the records of
    :func:`~entroll.rolling.resolve`, local corrections included, so the two trajectories
    describe the same state.  Checked in order before any dense array is built: the size
    bound, ``resolve``'s plan refusal, then each point's noise arguments.

    The records are replayed backward once per call; each point adds its channel factor, one
    gather per branch slot, and one Gram product (see the module docstring).  That is slower
    than the forward replay (:func:`apply_channel`, then :func:`measure_with_record`) only when
    most qubits are left, as in rolling-only and empty plans.
    """
    g = state.graph
    if g.n > MAX_CROSSCHECK_QUBITS:
        raise ValueError(f"crosscheck is limited to {MAX_CROSSCHECK_QUBITS} qubits, got {g.n}")
    outcome = resolve(state, plan)
    starts = [standard_noise(g, *point) for point in points]
    ket = dense_graph_state(g)
    qubits, z = _adjoint_amplitudes(ket, outcome.records)
    comps = [comp for comp in outcome.components if len(comp) >= 2]
    reports = []
    for ns0 in starts:
        symbolic_fids = component_fidelities(propagate(ns0, plan))
        dense = _replay_adjoint(qubits, z, _channel_factor(ket, ns0.maps))
        entries = tuple(
            CrosscheckEntry(
                component=tuple(sorted(comp)),
                fidelity_symbolic=symbolic_fids[component_key(comp)],
                fidelity_dense=dense_component_fidelity(dense, outcome.graph, comp),
            )
            for comp in comps
        )
        reports.append(CrosscheckReport(entries=entries))
    return tuple(reports)
