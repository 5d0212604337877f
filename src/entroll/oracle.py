"""Brute-force dense simulator used as ground truth for small instances.

Keeps full statevectors (n <= 12) or density matrices and replays the exact
same channels, measurements, and recorded local corrections that the
graph-level pipeline tracks symbolically.  Qubit order is big-endian over the
``qubits`` tuple: the first listed vertex owns the most significant bit.

The data stays real (float64) until a truly complex operator arrives (a Y
bra or a SQRT_Z(_DAG) correction); numpy's type promotion takes it from there.
A real replay, such as every default Bell or GHZ crosscheck, moves half the
bytes, which also halves a density matrix's memory at ``MAX_DENSE_QUBITS``.

Every pass over the data is a plain elementwise product or strided slice.  A
layer of Z-type noise is one elementwise factor on the density matrix; a
projection or a non-diagonal correction is one 2 x 2 mix of the halves where
the qubit is 0 and 1 (``_apply``, on the ket index and for a density matrix
on the bra index too); the diagonal corrections of a record, with its
renormalization, fold into one factor per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphstate import Graph, MeasurementRecord, PauliString, component_key
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
    "dense_graph_state",
    "graph_state_overlap",
    "measure_dense",
    "partial_trace",
    "vectors_equal_up_to_phase",
]

MAX_DENSE_QUBITS = 12

#: Largest resource :func:`crosscheck` (and so ``verify``) replays as a density matrix.
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

# The diagonal tags as c0 + c1 * Z: the factor they give an index is c0 + c1 * (+-1).
_DIAGONAL: dict[str, tuple[complex, complex]] = {
    tag: ((u[0, 0] + u[1, 1]) / 2, (u[0, 0] - u[1, 1]) / 2)
    for tag, u in CORRECTION_UNITARIES.items()
    if u[0, 1] == 0
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
    """Dense statevector or density matrix over an explicit qubit id order."""

    mode: str
    qubits: tuple[int, ...]
    data: np.ndarray

    @property
    def n(self) -> int:
        return len(self.qubits)

    def position(self, v: int) -> int:
        return self.qubits.index(v)

    def copy(self) -> DenseState:
        return DenseState(self.mode, self.qubits, self.data.copy())

    def to_density(self) -> DenseState:
        if self.mode == "density":
            return self.copy()
        return DenseState("density", self.qubits, np.outer(self.data, self.data.conj()))

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

    def z_signs(self, support: frozenset[int]) -> np.ndarray:
        """Diagonal of the Z string on ``support`` as a +-1 vector."""
        mask = sum(1 << (self.n - 1 - self.position(v)) for v in support)
        return _PARITY[_INDEX[: 2 ** self.n] & mask]

    def expectation(self, pauli: PauliString) -> complex:
        """<psi|P|psi> (vector mode) or tr(P rho) (density mode)."""
        flip = 0
        for v in pauli.x_support:
            flip |= 1 << (self.n - 1 - self.position(v))
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
    qubits = tuple(g.vertices())
    dim = 2 ** n
    vec = np.full(dim, 1 / math.sqrt(dim))
    idx = np.arange(dim)
    pos = {v: i for i, v in enumerate(qubits)}
    for u, w in g.edges():
        both = ((idx >> (n - 1 - pos[u])) & 1) & ((idx >> (n - 1 - pos[w])) & 1)
        vec[both == 1] *= -1.0
    state = DenseState("vector", qubits, vec)
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
    the 2^n indices, and the whole layer is one elementwise product into the
    one new matrix it returns.  Support qubits absent from the state are ignored.
    """
    if state.mode != "density":
        raise ValueError("channels act on density-mode states")
    table = _channel_table(state, noise_maps, np.result_type(state.data, float))
    table *= state.data
    return DenseState("density", state.qubits, table)


def _channel_table(state: DenseState, noise_maps: tuple[NoiseMap, ...], dtype: np.dtype) -> np.ndarray:
    """The matrix f(i ^ j) of :func:`apply_channel`, in a fresh ``dtype`` buffer."""
    live = set(state.qubits)
    factor = np.ones(2 ** state.n)
    for noise_map in noise_maps:
        g = np.zeros_like(factor)
        for prob, op in noise_map.branches:
            g += prob * state.z_signs(op.support & live)
        factor *= g
    # The matrix f(i ^ j), built by block copies instead of a gather through a
    # 4^n index table: row 0 is f, and rows s..2s-1 are rows 0..s-1 with their
    # column blocks of width s swapped pairwise, as (i + s) ^ j = i ^ (j ^ s).
    table = np.empty((factor.size, factor.size), dtype)
    table[0] = factor
    s = 1
    while s < factor.size:
        src = table[:s].reshape(s, -1, 2, s)
        dst = table[s : 2 * s].reshape(s, -1, 2, s)
        dst[:, :, 0], dst[:, :, 1] = src[:, :, 1], src[:, :, 0]
        s *= 2
    return table


def _apply(data: np.ndarray, pos: int, mat: np.ndarray, density: bool) -> np.ndarray:
    """Apply a k x 2 matrix (a 1 x 2 bra projects) to qubit ``pos``:
    on the ket index and, for a density matrix, on the bra index as its conjugate.

    Seen as (lead, 2, rest), an index splits into the halves where the qubit is
    0 and 1, and output row j is m[j, 0] * half 0 + m[j, 1] * half 1.
    """
    shape = [dim // 2 * len(mat) for dim in data.shape]
    sides = ((1 << pos, mat), (shape[0] << pos, mat.conj())) if density else ((1 << pos, mat),)
    for lead, m in sides:
        t = data.reshape(lead, 2, -1)
        data = np.empty((lead, len(m), t.shape[2]), np.result_type(t, m))
        for j, (m0, m1) in enumerate(m):
            # A zero coefficient is skipped: a Z-basis bra is one pass.
            np.multiply(t[:, 0] if m0 else t[:, 1], m0 or m1, out=data[:, j])
            if m0 and m1:
                data[:, j] += m1 * t[:, 1]
    return data.reshape(shape)


def _scale(data: np.ndarray, d: np.ndarray, density: bool, norm: float = 1.0) -> np.ndarray:
    """Divide by ``norm`` and multiply by the diagonal ``d``: psi * d, or
    rho * d d^dagger for a density matrix.  In place, unless a complex ``d``
    meets real data: then into a new complex array."""
    out = data if np.result_type(data, d) == data.dtype else np.empty(data.shape, complex)
    np.multiply(data, (d / norm)[:, None] if density else d / norm, out=out)
    if density:
        out *= d.conj()
    return out


def measure_dense(
    state: DenseState,
    a: int,
    basis: str,
    outcome: int = 1,
    corrections: tuple[tuple[int, str], ...] = (),
) -> DenseState:
    """Project qubit ``a``, renormalize, apply corrections, drop the qubit.

    Diagonal corrections (Z, SQRT_Z, SQRT_Z_DAG) commute with each other, so
    they are folded into one factor per index and applied in one pass,
    together with the renormalization; a non-diagonal one applies the factor
    gathered so far first, which keeps the order of two tags on one qubit.
    A bad basis, outcome, qubit or tag raises a ValueError naming it.
    """
    basis = basis.upper()
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"unsupported measurement basis {basis!r}")
    if outcome not in (1, -1):
        raise ValueError(f"measurement outcome must be +1 or -1, got {outcome!r}")
    for v in (a, *(c for c, _ in corrections)):
        if v not in state.qubits:
            raise ValueError(f"qubit {v!r} is not in the dense state")
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
    out = DenseState(state.mode, tuple(v for v in state.qubits if v != a), data)
    phase = None
    for v, tag in corrections:
        if v == a:
            continue
        if tag in _DIAGONAL:
            c0, c1 = _DIAGONAL[tag]
            factor = c0 + c1 * out.z_signs(frozenset((v,)))
            phase = factor if phase is None else phase * factor
            continue
        if phase is not None:
            out.data = _scale(out.data, phase, density)
            phase = None
        out.data = _apply(out.data, out.position(v), CORRECTION_UNITARIES[tag], density)
    if phase is None:
        out.data /= norm
    else:
        out.data = _scale(out.data, phase, density, norm)
    return out


def measure_with_record(state: DenseState, record: MeasurementRecord) -> DenseState:
    """Replay a graph-level measurement record on the dense state."""
    return measure_dense(
        state, record.measured, record.basis, record.outcome, record.corrections
    )


def partial_trace(state: DenseState, keep: frozenset[int]) -> DenseState:
    """Density-mode reduction onto the given qubit ids."""
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
    return DenseState("density", tuple(qubits), data)


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
    """Run the noise pipeline symbolically and densely; compare fidelities.

    Both paths start from the same initial maps attached to the undisturbed
    resource and execute the same plan with forced "+" outcomes; the dense
    path replays the records of :func:`~entroll.rolling.resolve`, local
    corrections included, so the two trajectories describe the same state and
    a plan ``resolve`` refuses is refused before any dense matrix is built.
    """
    g = state.graph
    if g.n > MAX_CROSSCHECK_QUBITS:
        raise ValueError(f"crosscheck is limited to {MAX_CROSSCHECK_QUBITS} qubits, got {g.n}")
    ns0 = standard_noise(g, p, t_ms, big_t_ms)
    symbolic_fids = component_fidelities(propagate(ns0, plan))
    outcome = resolve(state, plan)

    # |G><G| is multiplied straight into the channel's table, so the noise
    # layer before the first record makes one full-size matrix, not two.
    ket = dense_graph_state(g)
    rho = _channel_table(ket, ns0.maps, ket.data.dtype)
    rho *= ket.data[:, None]
    rho *= ket.data.conj()
    dense = DenseState("density", ket.qubits, rho)
    for rec in outcome.records:
        dense = measure_with_record(dense, rec)

    entries = []
    for comp in outcome.components:
        if len(comp) < 2:
            continue
        entries.append(
            CrosscheckEntry(
                component=tuple(sorted(comp)),
                fidelity_symbolic=symbolic_fids[component_key(comp)],
                fidelity_dense=dense_component_fidelity(dense, outcome.graph, comp),
            )
        )
    return CrosscheckReport(entries=tuple(entries))
