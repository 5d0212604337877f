"""Brute-force dense simulator used as ground truth for small instances.

Keeps full statevectors (n <= 12) or density matrices and replays the exact
same channels, measurements, and recorded local corrections that the
graph-level pipeline tracks symbolically.  Qubit order is big-endian over the
``qubits`` tuple: the first listed vertex owns the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphstate import Graph, MeasurementRecord, PauliString, component_key, measure_pauli
from .gtl import GtlState
from .noise import NoiseMap, NoiseState, component_fidelities, propagate, standard_noise
from .rolling import STOP_AFTER_ISOLATION, ResolutionPlan

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

_Z = np.diag([1.0, -1.0]).astype(complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _rot(mat: np.ndarray, sign: float) -> np.ndarray:
    # exp(sign * i * pi/4 * mat) for involutory mat
    return math.cos(math.pi / 4) * np.eye(2) + sign * 1j * math.sin(math.pi / 4) * mat


#: Concrete unitaries for the correction tags carried by measurement records.
CORRECTION_UNITARIES: dict[str, np.ndarray] = {
    "Z": _Z,
    "SQRT_Z": _rot(_Z, +1.0),
    "SQRT_Z_DAG": _rot(_Z, -1.0),
    "SQRT_Y": _rot(_Y, +1.0),
    "SQRT_Y_DAG": _rot(_Y, -1.0),
}

_BASIS_KETS: dict[tuple[str, int], np.ndarray] = {
    ("X", 1): np.array([1.0, 1.0]) / math.sqrt(2),
    ("X", -1): np.array([1.0, -1.0]) / math.sqrt(2),
    ("Y", 1): np.array([1.0, 1.0j]) / math.sqrt(2),
    ("Y", -1): np.array([1.0, -1.0j]) / math.sqrt(2),
    ("Z", 1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
}


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

    def _bit(self, v: int) -> np.ndarray:
        idx = np.arange(2 ** self.n)
        return (idx >> (self.n - 1 - self.position(v))) & 1

    def z_signs(self, support: frozenset[int]) -> np.ndarray:
        """Diagonal of the Z string on ``support`` as a +-1 vector."""
        signs = np.ones(2 ** self.n)
        for v in support:
            signs *= 1.0 - 2.0 * self._bit(v)
        return signs

    def expectation(self, pauli: PauliString) -> complex:
        """<psi|P|psi> (vector mode) or tr(P rho) (density mode)."""
        flip = 0
        for v in pauli.x_support:
            flip |= 1 << (self.n - 1 - self.position(v))
        phase = np.full(2 ** self.n, pauli.phase, dtype=complex)
        for v in pauli.z_support:
            phase *= 1.0 - 2.0 * self._bit(v)
        for v in pauli.x_support & pauli.z_support:
            # Y = iXZ on that qubit; the Z sign above already acted on the
            # source index, so only the i remains.
            phase *= 1j
        idx = np.arange(2 ** self.n)
        if self.mode == "vector":
            out = np.zeros_like(self.data)
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
    vec = np.ones(dim, dtype=complex) / math.sqrt(dim)
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
    the 2^n indices, and the whole layer is one elementwise product.  Support
    qubits absent from the state are ignored.
    """
    if state.mode != "density":
        raise ValueError("channels act on density-mode states")
    live = set(state.qubits)
    factor = np.ones(2 ** state.n)
    for noise_map in noise_maps:
        g = np.zeros_like(factor)
        for prob, op in noise_map.branches:
            g += prob * state.z_signs(op.support & live)
        factor *= g
    # The narrowest index type keeps the 4^n XOR table small and its gather fast.
    idx = np.arange(factor.size, dtype=np.min_scalar_type(factor.size - 1))
    return DenseState("density", state.qubits, state.data * factor[idx[:, None] ^ idx])


def _apply_unitary(data: np.ndarray, n: int, pos: int, u: np.ndarray, mode: str) -> np.ndarray:
    if mode == "vector":
        t = data.reshape([2] * n)
        t = np.moveaxis(t, pos, 0)
        t = np.tensordot(u, t, axes=([1], [0]))
        t = np.moveaxis(t, 0, pos)
        return t.reshape(-1)
    t = data.reshape([2] * (2 * n))
    t = np.moveaxis(t, pos, 0)
    t = np.tensordot(u, t, axes=([1], [0]))
    t = np.moveaxis(t, 0, pos)
    t = np.moveaxis(t, n + pos, 0)
    t = np.tensordot(u.conj(), t, axes=([1], [0]))
    t = np.moveaxis(t, 0, n + pos)
    return t.reshape(2 ** n, 2 ** n)


def measure_dense(
    state: DenseState,
    a: int,
    basis: str,
    outcome: int = 1,
    corrections: tuple[tuple[int, str], ...] = (),
) -> DenseState:
    """Project qubit ``a``, renormalize, apply corrections, drop the qubit."""
    basis = basis.upper()
    ket = _BASIS_KETS[(basis, outcome)]
    n = state.n
    pos = state.position(a)
    remaining = tuple(v for v in state.qubits if v != a)
    if state.mode == "vector":
        t = state.data.reshape([2] * n)
        t = np.moveaxis(t, pos, 0)
        w = np.tensordot(ket.conj(), t, axes=([0], [0])).reshape(-1)
        prob = float(np.vdot(w, w).real)
        if prob < 1e-14:
            raise ZeroProbabilityError(f"outcome {outcome} of {basis} on {a} has probability ~0")
        w = w / math.sqrt(prob)
        out = DenseState("vector", remaining, w)
    else:
        t = state.data.reshape([2] * (2 * n))
        t = np.moveaxis(t, pos, 0)
        t = np.tensordot(ket.conj(), t, axes=([0], [0]))
        t = np.moveaxis(t, (n - 1) + pos, 0)
        t = np.tensordot(ket, t, axes=([0], [0]))
        rho = t.reshape(2 ** (n - 1), 2 ** (n - 1))
        prob = float(np.trace(rho).real)
        if prob < 1e-14:
            raise ZeroProbabilityError(f"outcome {outcome} of {basis} on {a} has probability ~0")
        out = DenseState("density", remaining, rho / prob)
    for v, tag in corrections:
        if v == a:
            continue
        out.data = _apply_unitary(out.data, out.n, out.position(v), CORRECTION_UNITARIES[tag], out.mode)
    return out


def measure_with_record(state: DenseState, record: MeasurementRecord) -> DenseState:
    """Replay a graph-level measurement record on the dense state."""
    return measure_dense(
        state, record.measured, record.basis, record.outcome, record.corrections
    )


def partial_trace(state: DenseState, keep: frozenset[int]) -> DenseState:
    """Density-mode reduction onto the given qubit ids."""
    rho_state = state.to_density()
    data = rho_state.data
    qubits = list(rho_state.qubits)
    n = len(qubits)
    for v in [q for q in rho_state.qubits if q not in keep][::-1]:
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


def _induced_subgraph(g: Graph, comp: frozenset[int]) -> Graph:
    ids = sorted(comp)
    pos = {v: i for i, v in enumerate(ids)}
    sub = Graph.empty(len(ids))
    for u in ids:
        for w in g.neighbors(u):
            if w in comp and pos[u] < pos[w]:
                sub.add_edge(pos[u], pos[w])
    return sub


def dense_component_fidelity(state: DenseState, g: Graph, comp: frozenset[int]) -> float:
    """Fidelity of the reduced state on one component against its graph state."""
    reduced = partial_trace(state, comp)
    sub = _induced_subgraph(g, comp)
    target = dense_graph_state(sub)
    return float((target.data.conj() @ reduced.data @ target.data).real)


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

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "max_delta": self.max_delta,
            "entries": [
                {
                    "component": list(e.component),
                    "fidelity_symbolic": e.fidelity_symbolic,
                    "fidelity_dense": e.fidelity_dense,
                    "delta": e.delta,
                }
                for e in self.entries
            ],
        }


def crosscheck(
    state: GtlState,
    plan: ResolutionPlan,
    p: float = 1.0,
    t_ms: float = 1.0,
    big_t_ms: float = math.inf,
    initial_maps: tuple[NoiseMap, ...] | None = None,
) -> CrosscheckReport:
    """Run the noise pipeline symbolically and densely; compare fidelities.

    Both paths start from the same initial maps attached to the undisturbed
    resource and execute the same plan with forced "+" outcomes; the dense
    path additionally applies the recorded local corrections so the two
    trajectories describe the same state.
    """
    g = state.graph
    if g.n > MAX_CROSSCHECK_QUBITS:
        raise ValueError(f"crosscheck is limited to {MAX_CROSSCHECK_QUBITS} qubits, got {g.n}")
    if initial_maps is None:
        ns0 = standard_noise(g, p, t_ms, big_t_ms)
    else:
        ns0 = NoiseState(graph=g.copy(), maps=initial_maps)
    ns = propagate(ns0, plan)
    symbolic_fids = component_fidelities(ns)

    dense = apply_channel(dense_graph_state(g, mode="density"), *ns0.maps)
    sim = g.copy()
    for o, b0 in plan.steps:
        sim, rec = measure_pauli(sim, o, "X", b0)
        dense = measure_with_record(dense, rec)
    if plan.stop_stage == STOP_AFTER_ISOLATION:
        for v in plan.isolation:
            sim, rec = measure_pauli(sim, v, "Z")
            dense = measure_with_record(dense, rec)

    entries = []
    for comp in sim.components():
        if len(comp) < 2:
            continue
        entries.append(
            CrosscheckEntry(
                component=tuple(sorted(comp)),
                fidelity_symbolic=symbolic_fids[component_key(comp)],
                fidelity_dense=dense_component_fidelity(dense, sim, comp),
            )
        )
    return CrosscheckReport(entries=tuple(entries))
