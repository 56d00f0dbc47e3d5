"""Noise channels: PTM construction, basis changes, fidelities.

The fidelity assertions pin the built-in channels to values computed once
from the closed-form PTMs (depolarizing diag(1, .6, .6, .6) and so on), so
any drift in defaults or basis conventions shows up here first.
"""

import hashlib
from itertools import product

import numpy as np
import pytest

from nrqae import channels
from nrqae.channels import (
    DEFAULT_PARAMS,
    NOISE_KINDS,
    NoiseSpec,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    avg_gate_fidelity,
    fixed_conjugation_ptm,
    noise_superop,
    pauli_string,
    pauli_vec_basis,
    ptm_of_conjugation,
    ptm_to_superop,
    single_qubit_ptm,
)
from nrqae.errors import ConfigError, NonPhysicalChannelError
from nrqae.model import conjugation_superop, vectorize
from nrqae.rng import substream

# sha256 over the concatenated tobytes() of _statistical_ptm(f, seed), taken
# from the one-candidate-per-attempt draw before it was vectorised
STAT_FIDELITIES = (0.55, 0.7, 0.8, 0.89, 0.95, 0.99)
STAT_GRID_SHA = "86503d63c23750be862985a5a676b28857d898c59f4a6731b479383778c215ab"  # seeds 0-59
STAT_089_SHA = "42e38f74bc091fb393684279450a08a59045bd397345c0f0c30c7b86e9944039"  # seeds 0-199


def test_pauli_string_kron_order():
    x = pauli_string("X")
    z = pauli_string("Z")
    assert np.allclose(pauli_string("XZ"), np.kron(x, z))
    assert np.allclose(pauli_string("ZX"), np.kron(z, x))
    with pytest.raises(ConfigError):
        pauli_string("")
    with pytest.raises(ConfigError):
        pauli_string("XA")


@pytest.mark.parametrize("qubits", [1, 2])
def test_pauli_vec_basis_is_orthonormal(qubits):
    v = pauli_vec_basis(qubits)
    d2 = 4 ** qubits
    assert v.shape == (d2, d2)
    assert np.max(np.abs(v.conj().T @ v - np.eye(d2))) < 1e-12


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_pauli_vec_basis_is_built_once_and_read_only(qubits):
    v = pauli_vec_basis(qubits)
    assert v is pauli_vec_basis(qubits)
    with pytest.raises(ValueError):
        v[0, 0] = 0.0
    fresh = np.stack([(pauli_string("".join(labels)) / np.sqrt(2 ** qubits)).reshape(-1)
                      for labels in product("IXYZ", repeat=qubits)], axis=1)
    assert np.array_equal(v, fresh)


@pytest.mark.parametrize("name, op", [
    ("X", PAULI_X), ("Y", PAULI_Y), ("Z", PAULI_Z),
    ("K00", np.array([[1, 0], [0, 0]], dtype=complex)),
    ("K01", np.array([[0, 1], [0, 0]], dtype=complex)),
])
def test_fixed_conjugation_ptms_are_built_once_and_read_only(name, op):
    r = fixed_conjugation_ptm(name)
    assert r is fixed_conjugation_ptm(name)
    with pytest.raises(ValueError):
        r[0, 0] = 0.0
    assert np.array_equal(r, ptm_of_conjugation(op))


def test_ptm_superop_round_trip():
    rng = np.random.default_rng(101)
    for qubits in (1, 2):
        d2 = 4 ** qubits
        ptm = rng.standard_normal((d2, d2))
        v = pauli_vec_basis(qubits)
        back = v.conj().T @ ptm_to_superop(ptm, qubits) @ v
        assert np.max(np.abs(back - ptm)) < 1e-12


def test_ptm_of_conjugation_matches_superoperator():
    rng = np.random.default_rng(103)
    for _ in range(10):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        lhs = ptm_to_superop(ptm_of_conjugation(u), 1)
        assert np.max(np.abs(lhs - conjugation_superop(u))) < 1e-12
    with pytest.raises(ValueError):
        ptm_of_conjugation(np.eye(3))


def test_depolarizing_ptm_and_fidelity():
    ptm = single_qubit_ptm(NoiseSpec(kind="depolarizing"))
    assert np.allclose(ptm, np.diag([1.0, 0.6, 0.6, 0.6]), atol=1e-12)
    f = avg_gate_fidelity(noise_superop(NoiseSpec(kind="depolarizing"), 1), np.eye(4))
    assert abs(f - 0.8) < 1e-12


def test_pauli_mixture_ptm_and_fidelity():
    ptm = single_qubit_ptm(NoiseSpec(kind="pauli"))
    assert np.allclose(ptm, np.diag([1.0, 0.4, 0.2, 0.8]), atol=1e-12)
    f = avg_gate_fidelity(noise_superop(NoiseSpec(kind="pauli"), 1), np.eye(4))
    assert abs(f - 0.733333333333333) < 1e-12


def test_amplitude_damping_ptm_and_fidelity():
    ptm = single_qubit_ptm(NoiseSpec(kind="amplitude-damping"))
    want = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.9, 0.0, 0.0],
        [0.0, 0.0, 0.9, 0.0],
        [0.1, 0.0, 0.0, 0.9],
    ])
    assert np.allclose(ptm, want, atol=1e-12)
    f = avg_gate_fidelity(noise_superop(NoiseSpec(kind="amplitude-damping"), 1), np.eye(4))
    assert abs(f - 0.95) < 1e-12


def test_coherent_ptm_and_fidelity():
    # exp(i delta_t X) conjugation: X axis fixed, Y-Z plane rotated by 2 delta_t
    ptm = single_qubit_ptm(NoiseSpec(kind="coherent"))
    c, s = 0.969991616562, 0.243138363488
    want = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, c, s],
        [0.0, 0.0, -s, c],
    ])
    assert np.max(np.abs(ptm - want)) < 1e-11
    f = avg_gate_fidelity(noise_superop(NoiseSpec(kind="coherent"), 1), np.eye(4))
    assert abs(f - 0.989997205520594) < 1e-12


def test_statistical_channel_hits_fidelity_target_deterministically():
    spec = NoiseSpec(kind="statistical", seed=7)
    ptm_a = single_qubit_ptm(spec)
    ptm_b = single_qubit_ptm(NoiseSpec(kind="statistical", seed=7))
    assert np.array_equal(ptm_a, ptm_b)
    f = avg_gate_fidelity(ptm_to_superop(ptm_a, 1), np.eye(4))
    assert abs(f - 0.89) < 1e-12
    # a different seed draws a different perturbation around the same target
    ptm_c = single_qubit_ptm(NoiseSpec(kind="statistical", seed=8))
    assert np.max(np.abs(ptm_c - ptm_a)) > 1e-6
    f_c = avg_gate_fidelity(ptm_to_superop(ptm_c, 1), np.eye(4))
    assert abs(f_c - 0.89) < 1e-12


def test_statistical_draw_is_pinned():
    grid = hashlib.sha256()
    for f in STAT_FIDELITIES:
        for seed in range(60):
            grid.update(channels._statistical_ptm(f, seed).tobytes())
    assert grid.hexdigest() == STAT_GRID_SHA
    at_089 = hashlib.sha256()
    for seed in range(200):
        at_089.update(channels._statistical_ptm(0.89, seed).tobytes())
    assert at_089.hexdigest() == STAT_089_SHA


def _one_at_a_time_draw(target_fidelity, seed):
    """(attempts used, PTM) of the draw taking one candidate per attempt."""
    target_trace = 4.0 * (3.0 * target_fidelity - 1.0) / 2.0
    gen = substream(seed, channels._STAT_STREAM_TAG)
    attempts = 0
    while True:
        attempts += 1
        delta = gen.standard_normal((4, 4))
        delta[0, :] = 0.0
        tr = float(np.trace(delta))
        if abs(tr) < 0.5:
            continue
        r = np.eye(4) + (target_trace - 4.0) / tr * delta
        if np.linalg.norm(r[1:, 0]) + np.linalg.norm(r[1:, 1:], 2) <= 1.0:
            return attempts, r


def test_statistical_draw_budget_counts_attempts(monkeypatch):
    # a seed whose accepted candidate sits inside the second block, so the
    # budget has to split a block to stop one attempt short of it
    for seed in range(100):
        k, want = _one_at_a_time_draw(0.89, seed)
        if k > channels._STAT_BLOCK and k % channels._STAT_BLOCK:
            break
    else:
        pytest.fail("no seed accepts inside the second block")
    monkeypatch.setattr(channels, "_STAT_MAX_ATTEMPTS", k)
    assert np.array_equal(channels._statistical_ptm(0.89, seed), want)
    monkeypatch.setattr(channels, "_STAT_MAX_ATTEMPTS", k - 1)
    with pytest.raises(NonPhysicalChannelError, match="contractive"):
        channels._statistical_ptm(0.89, seed)


class _PlantedStream:
    """Stands in for the draw's stream: all-zero candidates, which the trace test drops,
    except the planted ones, {index: 4 x 4 candidate}, in stream order."""

    def __init__(self, planted):
        self.planted = planted
        self.drawn = 0

    def standard_normal(self, shape):
        block = np.zeros(shape)
        for i, candidate in self.planted.items():
            if self.drawn <= i < self.drawn + shape[0]:
                block[i - self.drawn] = candidate
        self.drawn += shape[0]
        return block


def _planted_draw(monkeypatch, planted):
    monkeypatch.setattr(channels, "substream", lambda *key: _PlantedStream(planted))
    return channels._statistical_ptm(0.89, 1)


# at fidelity 0.89 the PTM's trace is 3.34: the candidate diag(0, 1, 1, 1) scales to
# diag(1, 0.78, 0.78, 0.78), and diag(0, 0, 1, 1) to diag(1, 1, 0.67, 0.67), whose
# contraction is 1 exactly
_PASSING = np.diag([0.0, 1.0, 1.0, 1.0])
_ON_EDGE = np.diag([0.0, 0.0, 1.0, 1.0])


def test_statistical_draw_stops_after_500_000_candidates(monkeypatch):
    want = np.eye(4) - 0.22 * _PASSING
    assert np.allclose(_planted_draw(monkeypatch, {499_999: _PASSING}), want, atol=1e-15)
    with pytest.raises(NonPhysicalChannelError, match="contractive"):
        _planted_draw(monkeypatch, {500_000: _PASSING})


def test_statistical_draw_accepts_a_contraction_of_one(monkeypatch):
    got = _planted_draw(monkeypatch, {0: _ON_EDGE, 1: _PASSING})
    assert np.allclose(got, np.diag([1.0, 1.0, 0.67, 0.67]), atol=1e-15)


def test_statistical_draw_skips_a_trace_below_one_half(monkeypatch):
    # the first candidate's trace, 0.5 - 1e-10, clears the pre-filter's slack and would
    # pass the contraction test, but is under 0.5: the second is drawn
    first = np.diag([0.0, 2.0, 0.5, 0.5]) * (0.5 - 1e-10) / 3.0
    got = _planted_draw(monkeypatch, {0: first, 1: _PASSING})
    assert np.allclose(got, np.eye(4) - 0.22 * _PASSING, atol=1e-15)


def test_all_kinds_preserve_trace():
    for kind in NOISE_KINDS:
        if kind == "none":
            continue
        seed = 3 if kind == "statistical" else None
        ptm = single_qubit_ptm(NoiseSpec(kind=kind, seed=seed))
        assert np.max(np.abs(ptm[0] - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-12


def test_spec_validation():
    with pytest.raises(ConfigError):
        NoiseSpec(kind="thermal")
    with pytest.raises(ConfigError):
        NoiseSpec(kind="depolarizing", params={"gamma": 0.1})
    with pytest.raises(ConfigError):
        NoiseSpec(kind="statistical")
    spec = NoiseSpec(kind="depolarizing", params={"pauli_weight": 0.05})
    merged = spec.resolved()
    assert merged["pauli_weight"] == 0.05
    assert merged["identity_weight"] == DEFAULT_PARAMS["depolarizing"]["identity_weight"]


def test_unphysical_weights_rejected():
    with pytest.raises(NonPhysicalChannelError):
        single_qubit_ptm(NoiseSpec(kind="depolarizing", params={"identity_weight": 0.5}))
    for fidelity in (0.5, 1.0, 1.5):  # the target lies in (0.5, 1), bounds excluded
        with pytest.raises(NonPhysicalChannelError, match="outside"):
            single_qubit_ptm(NoiseSpec(kind="statistical", params={"target_fidelity": fidelity},
                                       seed=1))
    # weights summing to 1 + 1e-10 are no rounding of 1
    with pytest.raises(NonPhysicalChannelError, match="do not preserve trace"):
        single_qubit_ptm(NoiseSpec(kind="pauli", params={"weight_i": 0.6 + 1e-10}))
    # one negative weight per mixture: each mix preserves trace, so its sign
    # alone rejects it; the first has PTM diag(1, -0.6, -0.6, -0.6)
    for kind, params, negative in (
            ("depolarizing", {"identity_weight": -0.2, "pauli_weight": 0.4}, "identity_weight"),
            ("pauli", {"weight_i": 0.7, "weight_x": -0.1, "weight_y": 0.1, "weight_z": 0.3},
             "weight_x"),
            ("amplitude-damping", {"identity_weight": 1.1, "damping_weight": -0.1},
             "damping_weight")):
        with pytest.raises(NonPhysicalChannelError, match=f"completely positive.*'{negative}'"):
            noise_superop(NoiseSpec(kind=kind, params=params), 2)


def test_noise_superop_none_is_identity():
    assert np.array_equal(noise_superop(NoiseSpec(kind="none"), 2), np.eye(16))
    with pytest.raises(ValueError):
        noise_superop(NoiseSpec(kind="none"), 0)


def test_two_qubit_channel_factorizes_on_product_states():
    rng = np.random.default_rng(107)
    spec = NoiseSpec(kind="amplitude-damping")
    s1 = noise_superop(spec, 1)
    s2 = noise_superop(spec, 2)
    for _ in range(5):
        z1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        r1 = z1 @ z1.conj().T
        r2 = z2 @ z2.conj().T
        r1 /= np.trace(r1).real
        r2 /= np.trace(r2).real
        joint = (s2 @ vectorize(np.kron(r1, r2))).reshape(4, 4)
        split = np.kron((s1 @ vectorize(r1)).reshape(2, 2), (s1 @ vectorize(r2)).reshape(2, 2))
        assert np.max(np.abs(joint - split)) < 1e-12


def test_identity_channel_fidelity_is_one():
    assert abs(avg_gate_fidelity(np.eye(4), np.eye(4)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        avg_gate_fidelity(np.eye(4), np.eye(16))
    with pytest.raises(ValueError, match="expected a square matrix"):
        avg_gate_fidelity(np.ones((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="dimension 8 is not a square"):
        avg_gate_fidelity(np.eye(8), np.eye(8))
