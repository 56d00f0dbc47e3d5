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
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateProblemError, NrqaeError

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
            obs = np.asarray(self.observable, dtype=complex)
            if obs.shape != (dim, dim):
                raise ValueError(f"observable is {obs.shape}, expected ({dim}, {dim})")
            if not np.linalg.norm(obs - obs.conj().T) <= 1e-10:
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


def grover(problem: EstimationProblem) -> np.ndarray:
    """Walk operator (2|phi><phi| - I)(2|psi><psi| - I), or (2|psi><psi| - I) O."""
    if problem.mode == "amplitude":
        return reflection_about(problem.phi) @ reflection_about(problem.psi)
    return reflection_about(problem.psi) @ problem.observable


class ValuePair(NamedTuple):
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
    return np.asarray(op, dtype=complex).reshape(-1)


def conjugation_superop(u) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag in the row-stacking basis."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    return np.kron(u, u.conj())


def eig_dense(m):
    """Full eigendecomposition (w, v) of a dense square matrix.

    w[i] pairs with the unit-norm column v[:, i]. Entries are sorted by
    descending modulus, ties by phase in [0, 2*pi). Within a degenerate
    cluster the basis is whatever the solver returned; callers that need an
    invariant subspace should project onto the cluster.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NrqaeError(f"eigensolver did not converge: {exc}") from exc
    phase = np.mod(np.angle(w), 2.0 * np.pi)
    order = np.lexsort((phase, -np.abs(w)))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    return w, v


def rotation_plane(problem: EstimationProblem):
    """The plane the walk rotates, as (basis, theta_g, v_plus, v_minus).

    basis holds psi and the unit part of the second state orthogonal to it
    as columns; v_plus and v_minus are the eigenvectors, in that basis, of
    the walk restricted to the plane, at the eigenphases +theta_g and
    -theta_g. Raises DegenerateProblemError when the two states span no
    plane: they are parallel (an observable-mode psi that is an eigenstate
    of O among them), or theta_g is within 1e-9 of 0 or pi.
    """
    psi = problem.psi
    sec = problem.second_state()
    perp = sec - complex(np.vdot(psi, sec)) * psi
    nrm = np.linalg.norm(perp)
    if nrm < 1e-9:
        raise DegenerateProblemError("the two states are parallel; no rotation plane")
    basis = np.stack([psi, perp / nrm], axis=1)
    w, v = eig_dense(basis.conj().T @ grover(problem) @ basis)
    phases = np.angle(w)
    plus_idx = int(np.argmax(phases))
    theta_g = float(phases[plus_idx])
    if theta_g < 1e-9 or theta_g > np.pi - 1e-9:
        raise DegenerateProblemError(f"degenerate rotation phase {theta_g}")
    return basis, theta_g, v[:, plus_idx], v[:, 1 - plus_idx]
