"""First-order eigenstructure checks for the noisy walk channel.

With M_G the noiseless conjugated walk operator and N(s) = (1 - s) I + s N
an interpolated noise channel, the step operator S(s) = N(s) M_G perturbs
the two rotating eigenvectors vec(phi_+ phi_-^dag) and its conjugate. The
checks quantify, on a grid of interpolation strengths:

* lemma1_check: the matched eigenvalue minus (ideal + first-order term),
  which should shrink like s^2 (slope 2 on a log-log fit);
* lemma2_check: the least-squares coefficients of rho_tilde on the two
  perturbed eigenvectors against the ideal c and conj(c), and the residual
  off the perturbed plane, all shrinking like s (slope 1);
* theorem1_check: the exact depth series against the two-mode model
  |c1|^2 lambda1^n + |c2|^2 lambda2^n; the error should be O(s) uniformly
  in depth. At s = 0 the model collapses to 2|c|^2 cos(n theta_ch), the
  exact noiseless series.

perturbed_steps does all of the linear algebra the lemmas read, once per
(problem, noise): the channel N is drawn once, and per strength S(s) is
formed and diagonalized once, its +-theta_ch eigenpairs are matched once
and rho_tilde is fitted on their plane by one least-squares solve. The
checks only read that table; theorem1_check adds the exact series, read at
every depth from one list of squares of S(s) per strength.

Eigenpairs are matched to the ideal ones by eigenvector overlap; a row is
flagged when the best overlap drops below 0.5, which signals that the
perturbation is too strong for first-order tracking.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import NoiseSpec, noise_superop
from .errors import NonPhysicalChannelError
from .model import (EstimationProblem, conjugation_superop, eig_dense, grover, rho_tilde,
                    rotation_plane, vectorize)

OVERLAP_FLAG_THRESHOLD = 0.5
_IMAG_TOL = 1e-8


class SubspaceBasis(NamedTuple):
    """Rotating-plane data of the noiseless walk operator.

    vectors holds the four vectorized dyads (phi_+ phi_+^dag,
    phi_+ phi_-^dag, phi_- phi_+^dag, phi_- phi_-^dag) as columns; the
    middle two carry channel phases +theta_ch and -theta_ch. c is the
    coefficient <<phi_+ phi_-^dag | rho_tilde>>.
    """

    vectors: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    theta_g: float
    theta_ch: float
    c: complex


def subspace_basis(problem: EstimationProblem) -> SubspaceBasis:
    basis, theta_g, v_plus, v_minus = rotation_plane(problem)

    def lifted(vec: np.ndarray) -> np.ndarray:
        u = basis @ vec
        u = u / np.linalg.norm(u)
        j = int(np.argmax(np.abs(u)))
        return u * np.exp(-1j * np.angle(u[j]))

    phi_plus = lifted(v_plus)
    phi_minus = lifted(v_minus)
    dyads = [np.outer(phi_plus, phi_plus.conj()), np.outer(phi_plus, phi_minus.conj()),
             np.outer(phi_minus, phi_plus.conj()), np.outer(phi_minus, phi_minus.conj())]
    vectors = np.stack([vectorize(d) for d in dyads], axis=1)
    c = complex(np.vdot(vectors[:, 1], vectorize(rho_tilde(problem))))
    return SubspaceBasis(vectors=vectors, phi_plus=phi_plus, phi_minus=phi_minus,
                         theta_g=theta_g, theta_ch=2.0 * theta_g, c=c)


def interpolated_noise(noise_matrix: np.ndarray, s: float) -> np.ndarray:
    """N(s) = (1 - s) I + s N on superoperators."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation strength {s} outside [0, 1]")
    n = np.asarray(noise_matrix, dtype=complex)
    return (1.0 - s) * np.eye(n.shape[0]) + s * n


class PerturbedStep(NamedTuple):
    """S(s) = N(s) M_G at one strength and its eigenpairs continuing the +-theta_ch dyads.

    lam1 and lam2 are the eigenvalues matched to the +theta_ch and -theta_ch
    dyads, plane holds their eigenvectors as columns and coef the
    least-squares coefficients of rho_tilde on them. overlap1 is the
    +theta_ch match's overlap, overlap the smaller of the two.
    """

    s: float
    step: np.ndarray
    lam1: complex
    lam2: complex
    plane: np.ndarray
    coef: np.ndarray
    overlap1: float
    overlap: float


class PerturbedSteps(NamedTuple):
    """What the three checks read: the noiseless plane and step M_G, vec(rho_tilde), S(s)."""

    basis: SubspaceBasis
    mg: np.ndarray
    rho_vec: np.ndarray
    steps: tuple


def _matched_pair(eig, target_vec: np.ndarray):
    """The eigenpair of eig = (w, v) whose vector overlaps target_vec most, phase-aligned to it."""
    w, v = eig
    overlaps = np.abs(v.conj().T @ target_vec)
    idx = int(np.argmax(overlaps))
    vec = v[:, idx]
    phase = np.vdot(target_vec, vec)
    if abs(phase) > 0:
        vec = vec * np.exp(-1j * np.angle(phase))
    return w[idx], vec, float(overlaps[idx])


def perturbed_steps(problem: EstimationProblem, noise: NoiseSpec, s_values) -> PerturbedSteps:
    """Build the channel once; per strength, diagonalize S(s), match and fit once."""
    sub = subspace_basis(problem)
    mg = conjugation_superop(grover(problem))
    n_full = noise_superop(noise, problem.qubits)
    rho_vec = vectorize(rho_tilde(problem))
    steps = []
    for s in s_values:
        step = interpolated_noise(n_full, s) @ mg
        eig = eig_dense(step)
        lam1, v1, overlap1 = _matched_pair(eig, sub.vectors[:, 1])
        lam2, v2, overlap2 = _matched_pair(eig, sub.vectors[:, 2])
        plane = np.stack([v1, v2], axis=1)
        coef, *_ = np.linalg.lstsq(plane, rho_vec, rcond=None)
        steps.append(PerturbedStep(s=float(s), step=step, lam1=lam1, lam2=lam2, plane=plane,
                                   coef=coef, overlap1=overlap1,
                                   overlap=min(overlap1, overlap2)))
    return PerturbedSteps(basis=sub, mg=mg, rho_vec=rho_vec, steps=tuple(steps))


class Lemma1Row(NamedTuple):
    s: float
    eigenvalue: complex
    prediction: complex
    residual: float
    overlap: float
    flagged: bool


def lemma1_check(steps: PerturbedSteps) -> list:
    """First-order eigenvalue residuals on the +theta_ch branch."""
    b2 = steps.basis.vectors[:, 1]
    lam0 = np.exp(1j * steps.basis.theta_ch)
    rows = []
    for st in steps.steps:
        first = complex(np.vdot(b2, (st.step - steps.mg) @ b2))
        resid = abs(st.lam1 - (lam0 + first))
        rows.append(Lemma1Row(s=st.s, eigenvalue=complex(st.lam1),
                              prediction=lam0 + first, residual=float(resid),
                              overlap=st.overlap1,
                              flagged=st.overlap1 < OVERLAP_FLAG_THRESHOLD))
    return rows


class Lemma2Row(NamedTuple):
    s: float
    c1_error: float
    c2_error: float
    span_residual: float
    overlap: float
    flagged: bool


def lemma2_check(steps: PerturbedSteps) -> list:
    """Coefficient drift and off-plane residual of rho_tilde."""
    c = steps.basis.c
    rows = []
    for st in steps.steps:
        resid = float(np.linalg.norm(steps.rho_vec - st.plane @ st.coef))
        rows.append(Lemma2Row(s=st.s, c1_error=float(abs(st.coef[0] - c)),
                              c2_error=float(abs(st.coef[1] - np.conj(c))),
                              span_residual=resid, overlap=st.overlap,
                              flagged=st.overlap < OVERLAP_FLAG_THRESHOLD))
    return rows


class Theorem1Row(NamedTuple):
    s: float
    n: int
    t_exact: float
    t_model: float
    error: float
    flagged: bool


def theorem1_check(steps: PerturbedSteps, depths=(1, 2, 4, 8, 16, 32, 64)) -> list:
    """Exact depth series vs the two-mode model, per (s, n).

    Each strength builds one list of squares [S, S^2, S^4, ...] up to the
    deepest depth, and S^n multiplies the squares of n's set bits, low to
    high, as square @ result. Powers of one matrix commute, but this product
    order fixes the rounding of the theorem1_error values, which are written
    to 12 digits.
    """
    top = max(depths, default=0)

    def exact_t(squares: list, n: int) -> float:
        if n < 0:
            raise ValueError(f"negative depth {n}")
        power = np.eye(len(steps.mg), dtype=complex) if n == 0 else None
        for j, square in enumerate(squares):
            if n >> j & 1:
                power = square if power is None else square @ power
        raw = complex(np.vdot(steps.rho_vec, power @ steps.rho_vec))
        if abs(raw.imag) > _IMAG_TOL:
            raise NonPhysicalChannelError(f"depth {n}: non-real t value {raw}")
        return float(raw.real)

    rows = []
    for st in steps.steps:
        squares = [st.step]
        while 1 << len(squares) <= top:
            squares.append(squares[-1] @ squares[-1])
        w1 = abs(st.coef[0]) ** 2
        w2 = abs(st.coef[1]) ** 2
        flagged = st.overlap < OVERLAP_FLAG_THRESHOLD
        for n in depths:
            t_exact = exact_t(squares, n)
            model = w1 * st.lam1 ** n + w2 * st.lam2 ** n
            rows.append(Theorem1Row(s=st.s, n=int(n), t_exact=t_exact,
                                    t_model=float(model.real),
                                    error=float(abs(t_exact - model)),
                                    flagged=flagged))
    return rows


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), positive pairs only."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two positive points for a log-log fit")
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])
