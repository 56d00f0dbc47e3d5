"""Single-qubit noise channels and their superoperator representations.

Channels are specified in the Pauli transfer matrix (PTM) picture,
R[i, j] = Tr(P_i E(P_j)) / d over the Pauli basis (I, X, Y, Z), then
converted to the row-stacking basis used by the circuit layer through the
unitary whose columns are vec(P_a / sqrt(d)). Multi-qubit noise is the
tensor product of one single-qubit channel per qubit.

Built-in kinds and their default parameters:

    none                identity channel
    depolarizing        0.7 * Id + 0.1 * (Cx + Cy + Cz)          F_avg = 0.8
    pauli               0.6 * Id + 0.1 * Cx + 0.0 * Cy + 0.3 * Cz  F_avg ~ 0.733
    amplitude-damping   0.9 * Id + 0.1 * (K00 + K01)             F_avg = 0.95
    coherent            conjugation by exp(i * delta_t * X), delta_t = 0.1228
    statistical         Gaussian PTM perturbation rescaled to a fidelity
                        target (0.89 by default), drawn from a seeded stream

where Cp is conjugation by the Pauli p, and K00 / K01 are conjugations by
|0><0| and |0><1|. Weight vectors are validated to preserve trace (first
PTM row (1, 0, 0, 0)) and to have no negative weight: for these
trace-preserving mixtures, every weight >= 0 is exactly complete
positivity (each weight has a direction of the Choi matrix that no other
weight reaches). The statistical draw additionally enforces
||t||_2 + ||A||_2 <= 1 on the non-unital column t and unital block A, which
maps the Bloch ball into itself and keeps every single-qubit probability
in [0, 1]. The draw takes its candidates in blocks from one seeded stream,
in stream order, and keeps the first that passes, so the PTM is a pure
function of (seed, target_fidelity). Tensor products of statistical draws
can still act non-physically on entangled inputs; the circuit layer rejects
such probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Optional

import numpy as np

from .errors import ConfigError, NonPhysicalChannelError
from .rng import substream

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
# The operators whose conjugation PTMs the Pauli-type and damping kinds weight.
_FIXED_CONJUGATIONS = {
    "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z,
    "K00": np.array([[1, 0], [0, 0]], dtype=complex),
    "K01": np.array([[0, 1], [0, 0]], dtype=complex),
}

NOISE_KINDS = ("none", "statistical", "amplitude-damping", "pauli", "coherent", "depolarizing")

DEFAULT_PARAMS = {
    "none": {},
    "depolarizing": {"identity_weight": 0.7, "pauli_weight": 0.1},
    "pauli": {"weight_i": 0.6, "weight_x": 0.1, "weight_y": 0.0, "weight_z": 0.3},
    "amplitude-damping": {"identity_weight": 0.9, "damping_weight": 0.1},
    "coherent": {"delta_t": 0.1228},
    "statistical": {"target_fidelity": 0.89},
}

# The weighted mixtures as (identity weight, terms): each term (weight, op, ...)
# adds the weight times the sum of the ops' conjugation PTMs, in this order.
_MIXTURES = {
    "depolarizing": ("identity_weight", (("pauli_weight", "X"), ("pauli_weight", "Y"),
                                         ("pauli_weight", "Z"))),
    "pauli": ("weight_i", (("weight_x", "X"), ("weight_y", "Y"), ("weight_z", "Z"))),
    "amplitude-damping": ("identity_weight", (("damping_weight", "K00", "K01"),)),
}

_STAT_STREAM_TAG = 7001
_STAT_MAX_ATTEMPTS = 500_000
_STAT_BLOCK = 1024
# Slack of the vectorised pre-filter in _statistical_ptm; it only lets more
# candidates reach the exact test and never accepts one.
_STAT_SLACK = 1e-9


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "Z" or "XZ"."""
    if not label or any(ch not in _PAULIS for ch in label):
        raise ConfigError(f"invalid Pauli string {label!r}")
    op = _PAULIS[label[0]]
    for ch in label[1:]:
        op = np.kron(op, _PAULIS[ch])
    return op


@cache
def pauli_vec_basis(qubits: int) -> np.ndarray:
    """Unitary whose columns are vec(P_a / sqrt(d)), labels in lexicographic order.

    Built once per qubit count; the shared array is read-only.
    """
    d = 2 ** qubits
    cols = []
    for labels in product("IXYZ", repeat=qubits):
        cols.append((pauli_string("".join(labels)) / np.sqrt(d)).reshape(-1))
    v = np.stack(cols, axis=1)
    v.setflags(write=False)
    return v


def ptm_to_superop(ptm, qubits: int) -> np.ndarray:
    v = pauli_vec_basis(qubits)
    return v @ np.asarray(ptm, dtype=complex) @ v.conj().T


def ptm_of_conjugation(k) -> np.ndarray:
    """PTM of rho -> K rho K^dag for a single-qubit operator K.

    Each entry is real for any K: Tr(P_i K P_j K^dag) is its own conjugate
    by the cyclic property, so the imaginary parts dropped are rounding.
    """
    k = np.asarray(k, dtype=complex)
    if k.shape != (2, 2):
        raise ValueError("expected a 2x2 operator")
    paulis = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
    r = np.empty((4, 4), dtype=complex)
    for i, pi in enumerate(paulis):
        for j, pj in enumerate(paulis):
            r[i, j] = np.trace(pi @ k @ pj @ k.conj().T) / 2.0
    return r.real.astype(float)


@cache
def fixed_conjugation_ptm(name: str) -> np.ndarray:
    """PTM of conjugation by X, Y, Z, K00 = |0><0| or K01 = |0><1|.

    Built once per operator on first use; the shared array is read-only.
    """
    r = ptm_of_conjugation(_FIXED_CONJUGATIONS[name])
    r.setflags(write=False)
    return r


@dataclass(frozen=True)
class NoiseSpec:
    """A named noise kind plus its parameters.

    params overrides entries of DEFAULT_PARAMS[kind]; the statistical kind
    requires a seed. NoiseSpec is a pure description: the superoperator is
    built by noise_superop.
    """

    kind: str = "none"
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        unknown = set(self.params) - set(DEFAULT_PARAMS[self.kind])
        if unknown:
            raise ConfigError(f"unknown parameters for {self.kind}: {sorted(unknown)}")
        if self.kind == "statistical" and self.seed is None:
            raise ConfigError("statistical noise needs a seed")

    def resolved(self) -> dict:
        merged = dict(DEFAULT_PARAMS[self.kind])
        merged.update(self.params)
        return merged


def _statistical_ptm(target_fidelity: float, seed: int) -> np.ndarray:
    if not 0.5 < target_fidelity < 1.0:
        raise NonPhysicalChannelError(f"statistical fidelity target {target_fidelity} outside (0.5, 1)")
    # d = 2: F_pro = (3 F_avg - 1)/2 and Tr(PTM) = 4 F_pro fixes the trace.
    target_trace = 4.0 * (3.0 * target_fidelity - 1.0) / 2.0
    gen = substream(seed, _STAT_STREAM_TAG)
    # Candidates come in blocks of _STAT_BLOCK from the same stream: one
    # (b, 4, 4) draw yields the numbers of b draws of shape (4, 4). A
    # vectorised bound (the spectral norm is at least the largest column
    # norm) drops candidates that cannot pass; the survivors, in stream
    # order, go through the exact scalar test and the first to pass wins.
    left = _STAT_MAX_ATTEMPTS
    while left > 0:
        block = gen.standard_normal((min(_STAT_BLOCK, left), 4, 4))
        left -= block.shape[0]
        block[:, 0, :] = 0.0
        traces = np.trace(block, axis1=1, axis2=2)
        idx = np.flatnonzero(np.abs(traces) >= 0.5 - _STAT_SLACK)
        rs = np.eye(4) + ((target_trace - 4.0) / traces[idx])[:, None, None] * block[idx]
        shifts = np.linalg.norm(rs[:, 1:, 0], axis=1)
        colmax = np.linalg.norm(rs[:, 1:, 1:], axis=1).max(axis=1)
        for i in idx[shifts + colmax <= 1.0 + _STAT_SLACK]:
            delta = block[i]
            tr = float(np.trace(delta))
            if abs(tr) < 0.5:
                continue
            scale = (target_trace - 4.0) / tr
            r = np.eye(4) + scale * delta
            shift = np.linalg.norm(r[1:, 0])
            contraction = np.linalg.norm(r[1:, 1:], 2)
            if shift + contraction <= 1.0:
                return r
    raise NonPhysicalChannelError("statistical draw did not find a contractive perturbation")


def single_qubit_ptm(spec: NoiseSpec) -> np.ndarray:
    """4x4 PTM of the configured single-qubit channel."""
    p = spec.resolved()
    if spec.kind == "none":
        return np.eye(4)
    if spec.kind in _MIXTURES:
        identity, terms = _MIXTURES[spec.kind]
        weights = sorted({identity, *(name for name, *_ in terms)})
        negative = {name: p[name] for name in weights if p[name] < 0}
        if negative:
            # for these trace-preserving mixtures, completely positive means no weight < 0
            raise NonPhysicalChannelError(
                f"{spec.kind} weights must be >= 0 to be completely positive, got {negative}")
        r = p[identity] * np.eye(4)
        for name, first, *rest in terms:
            r = r + p[name] * sum(map(fixed_conjugation_ptm, rest), fixed_conjugation_ptm(first))
        # each term's first PTM row is (1, 0, 0, 0), so this checks that the weights sum to 1
        if np.max(np.abs(r[0] - np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-12:
            raise NonPhysicalChannelError(f"{spec.kind} weights do not preserve trace")
        return r
    if spec.kind == "coherent":
        dt = p["delta_t"]
        return ptm_of_conjugation(np.cos(dt) * PAULI_I + 1j * np.sin(dt) * PAULI_X)
    # a conjugation PTM and a statistical draw have first row (1, 0, 0, 0) by construction
    return _statistical_ptm(p["target_fidelity"], spec.seed)


def noise_superop(spec: NoiseSpec, qubits: int) -> np.ndarray:
    """Row-stacking superoperator of the channel on the given qubit count."""
    if qubits < 1:
        raise ValueError(f"qubits must be >= 1, got {qubits}")
    if spec.kind == "none":
        d = 2 ** qubits
        return np.eye(d * d, dtype=complex)
    ptm1 = single_qubit_ptm(spec)
    ptm = ptm1
    for _ in range(qubits - 1):
        ptm = np.kron(ptm, ptm1)
    return ptm_to_superop(ptm, qubits)


def avg_gate_fidelity(noisy, ideal) -> float:
    """Average gate fidelity (d F_pro + 1) / (d + 1).

    F_pro = Tr(ideal^dag noisy).real / d^2 is the process fidelity; both
    arguments are superoperators in the same orthonormal operator basis
    (row-stacking or PTM give the same value). This is the standard
    twirled-overlap formula. No command calls it: the tests check each
    kind's F_avg above against it, and the statistical draw reaches its
    target through the same formula solved for the PTM's trace.
    """
    noisy = np.asarray(noisy, dtype=complex)
    ideal = np.asarray(ideal, dtype=complex)
    if noisy.ndim != 2 or noisy.shape[0] != noisy.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {noisy.shape}")
    if noisy.shape != ideal.shape:
        raise ValueError(f"superoperator shapes differ: {noisy.shape} vs {ideal.shape}")
    d = int(round(np.sqrt(noisy.shape[0])))
    if d * d != noisy.shape[0]:
        raise ValueError(f"superoperator dimension {noisy.shape[0]} is not a square")
    f_pro = float(np.trace(ideal.conj().T @ noisy).real) / (d * d)
    return (d * f_pro + 1.0) / (d + 1.0)
