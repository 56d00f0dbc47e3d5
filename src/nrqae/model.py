"""States, walk operators, and the vectorized picture.

Conventions used throughout the package:

* kets are 1-D complex arrays, operators are d x d arrays with d = 2**qubits;
* vec(rho) stacks rows (C order), so rho -> A rho B maps to the
  superoperator kron(A, B.T) acting on vec(rho), and unitary conjugation
  maps to kron(U, U.conj());
* <<sigma|rho>> = vec(sigma)^dag vec(rho) = Tr(sigma^dag rho);
* the walk operator composes the reflection about the second state after
  the reflection about the prepared state. On the plane spanned by the two
  states this is a counterclockwise rotation by twice the angle between
  them, and the orthogonal complement is fixed pointwise.

The channel phase theta_ch of the conjugated walk superoperator is twice
the state-space phase theta_g, with cos(theta_g) = 2a - 1 in amplitude mode
(a the squared overlap) and cos(theta_g) = <O> in observable mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import cmat, is_hermitian, square

NORM_TOL = 1e-10


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex unit vector."""
    s = np.asarray(v, dtype=complex)
    if s.ndim != 1:
        raise ValueError(f"expected a 1-D state vector, got shape {s.shape}")
    nrm = np.linalg.norm(s)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |v| = {nrm}")
    return s


def reflection_about(state) -> np.ndarray:
    """Reflection 2|x><x| - I about a unit vector."""
    s = as_state(state)
    return 2.0 * np.outer(s, s.conj()) - np.eye(s.size)


@dataclass(frozen=True)
class EstimationProblem:
    """A prepared state plus either a target state or an observable.

    mode is "amplitude" (estimate |<phi|psi>|^2) or "observable" (estimate
    <psi|O|psi> for a Hermitian involution O). The observable must also be
    traceless; that is what ties Tr((2|psi><psi| - I) O) to 2<O>.
    """

    mode: str
    qubits: int
    psi: np.ndarray
    phi: Optional[np.ndarray] = None
    observable: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("amplitude", "observable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        psi = as_state(self.psi)
        dim = 2 ** self.qubits
        if psi.size != dim:
            raise ValueError(f"psi has length {psi.size}, expected {dim}")
        object.__setattr__(self, "psi", psi)
        if self.mode == "amplitude":
            if self.phi is None:
                raise ValueError("amplitude mode needs a second state phi")
            phi = as_state(self.phi)
            if phi.size != dim:
                raise ValueError(f"phi has length {phi.size}, expected {dim}")
            object.__setattr__(self, "phi", phi)
        else:
            if self.observable is None:
                raise ValueError("observable mode needs an observable")
            obs = square(self.observable)
            if obs.shape[0] != dim:
                raise ValueError(f"observable is {obs.shape}, expected ({dim}, {dim})")
            if not is_hermitian(obs):
                raise ValueError("observable is not Hermitian")
            if np.linalg.norm(obs @ obs - np.eye(dim)) > 1e-10:
                raise ValueError("observable is not an involution (O @ O != I)")
            if abs(np.trace(obs)) > 1e-10:
                raise ValueError("observable is not traceless")
            object.__setattr__(self, "observable", obs)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    def second_state(self) -> np.ndarray:
        """phi in amplitude mode, O|psi> in observable mode."""
        if self.mode == "amplitude":
            return self.phi
        return self.observable @ self.psi


def amplitude_problem(psi, phi) -> EstimationProblem:
    psi = as_state(psi)
    q = int(np.log2(psi.size))
    if 2 ** q != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    return EstimationProblem(mode="amplitude", qubits=q, psi=psi, phi=phi)


def observable_problem(psi, observable) -> EstimationProblem:
    psi = as_state(psi)
    q = int(np.log2(psi.size))
    if 2 ** q != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    return EstimationProblem(mode="observable", qubits=q, psi=psi, observable=observable)


def grover_amplitude(problem: EstimationProblem) -> np.ndarray:
    """Walk operator (2|phi><phi| - I)(2|psi><psi| - I)."""
    if problem.mode != "amplitude":
        raise ValueError("grover_amplitude needs an amplitude-mode problem")
    return reflection_about(problem.phi) @ reflection_about(problem.psi)


def grover_observable(problem: EstimationProblem) -> np.ndarray:
    """Walk operator (2|psi><psi| - I) O."""
    if problem.mode != "observable":
        raise ValueError("grover_observable needs an observable-mode problem")
    return reflection_about(problem.psi) @ problem.observable


def grover(problem: EstimationProblem) -> np.ndarray:
    if problem.mode == "amplitude":
        return grover_amplitude(problem)
    return grover_observable(problem)


@dataclass(frozen=True)
class ValuePair:
    """Principal estimate and its mirror (the inherent branch ambiguity)."""

    value: float
    mirror: float


def theta_to_value(theta_ch: float, mode: str) -> ValuePair:
    """Map the channel phase in [0, pi] to the estimated quantity.

    Amplitude mode returns a = (1 + cos(theta_ch / 2)) / 2 (covering
    a >= 1/2, the mirror 1 - a covers the rest); observable mode returns
    <O> = cos(theta_ch / 2) with mirror -<O>.
    """
    if not -1e-12 <= theta_ch <= np.pi + 1e-12:
        raise ValueError(f"theta_ch = {theta_ch} outside [0, pi]")
    theta_ch = float(min(max(theta_ch, 0.0), np.pi))
    c = np.cos(theta_ch / 2.0)
    if mode == "amplitude":
        v = (1.0 + c) / 2.0
        return ValuePair(value=float(v), mirror=float(1.0 - v))
    if mode == "observable":
        return ValuePair(value=float(c), mirror=float(-c))
    raise ValueError(f"unknown mode {mode!r}")


def rho_tilde(problem: EstimationProblem) -> np.ndarray:
    """Traceless preparation difference.

    phi phi^dag - psi psi^dag in amplitude mode, with phi replaced by
    O|psi> in observable mode. Expanded in the rotating eigenbasis of the
    walk operator this operator has only the two cross terms, which is why
    the depth series carries a pure cos(n theta_ch) signal.
    """
    t = problem.second_state()
    psi = problem.psi
    return np.outer(t, t.conj()) - np.outer(psi, psi.conj())


def vectorize(op) -> np.ndarray:
    """Row-stacking vec: C-order reshape to a vector."""
    return cmat(op).reshape(-1)


def conjugation_superop(u) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag in the row-stacking basis."""
    u = square(u)
    return np.kron(u, u.conj())
