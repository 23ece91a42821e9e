from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vislam.geometry import (
    Pose,
    Rotation,
    SimTransform,
    hat,
    quat_from_matrix,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)
from vislam.imu import BiasState
from vislam.residuals import GravityModel, PoseState


def _random_omega(rng, max_angle=np.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(1e-6, max_angle)


def test_so3_exp_zero_is_identity():
    r = Rotation.exp(np.zeros(3))
    assert np.allclose(r.matrix(), np.eye(3), atol=1e-15)


def test_so3_exp_quarter_turn_about_z():
    r = Rotation.exp(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(r.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-12)


def test_so3_log_identity_is_zero():
    assert np.allclose(Rotation.identity().log(), np.zeros(3))


def test_so3_log_round_trip_fixed():
    w = np.array([0.3, -0.1, 0.2])
    assert np.allclose(Rotation.exp(w).log(), w, atol=1e-10)


def test_so3_log_pi_about_z():
    r = Rotation.exp(np.array([0.0, 0.0, np.pi]))
    assert np.allclose(r.log(), [0.0, 0.0, np.pi], atol=1e-7)


def test_so3_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = _random_omega(rng)
        assert np.allclose(Rotation.exp(w).log(), w, atol=1e-10)


def test_so3_round_trip_tiny_angles():
    rng = np.random.default_rng(1)
    for mag in [1e-12, 1e-10, 1e-9, 1e-8, 1e-7]:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = axis * mag
        assert np.allclose(Rotation.exp(w).log(), w, atol=1e-10)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = Rotation.exp(_random_omega(rng))
        v = rng.normal(size=3)
        assert abs(np.linalg.norm(r.apply(v)) - np.linalg.norm(v)) < 1e-12


def test_quaternion_canonical_and_unit():
    rng = np.random.default_rng(3)
    r = Rotation.identity()
    for _ in range(1000):
        r = r * Rotation.exp(_random_omega(rng, 0.5))
        assert r.q[0] >= 0.0
        assert abs(np.linalg.norm(r.q) - 1.0) < 1e-12


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("omega, pivot, flips", [
    ([0.3, -0.1, 0.2], None, False),
    (2.5 * _unit([1.0, 0.2, 0.1]), 0, False),
    (2.5 * _unit([0.2, 1.0, -0.1]), 1, False),
    (2.5 * _unit([0.1, -0.2, 1.0]), 2, False),
    ((np.pi - 1e-9) * _unit([0.3, 0.5, 0.8]), 2, False),
    (2.5 * _unit([-1.0, 0.2, 0.1]), 0, True),
], ids=["trace", "pivot_x", "pivot_y", "pivot_z", "near_pi", "sign_flip"])
def test_quat_from_matrix_matches_exp(omega, pivot, flips):
    # Rotation.exp builds q from the half-angle directly, not from a matrix
    r = Rotation.exp(omega)
    R = r.matrix()
    # the case takes the branch it is named for
    assert (np.trace(R) > 0.0) == (pivot is None)
    if pivot is not None:
        assert np.argmax(np.diag(R)) == pivot
    q = quat_from_matrix(R[None])[0]
    assert (q[0] < 0.0) == flips
    q = q / np.linalg.norm(q)
    q = -q if q[0] < 0.0 else q
    assert np.max(np.abs(q - r.q)) < 1e-12


def test_right_jacobian_at_zero():
    assert np.allclose(so3_right_jacobian(np.zeros(3)), np.eye(3))


def test_right_jacobian_small_angle_series():
    w = np.array([0.6, -0.8, 0.0]) * 1e-3
    approx = np.eye(3) - 0.5 * hat(w)
    assert np.max(np.abs(so3_right_jacobian(w) - approx)) < 1e-6


def test_right_jacobian_defect():
    # Exp(w + d) == Exp(w) Exp(Jr(w) d) up to O(||d||^2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = _random_omega(rng, 2.5)
        d = rng.normal(size=3)
        d *= 1e-5 / np.linalg.norm(d)
        lhs = Rotation.exp(w + d).matrix()
        rhs = (Rotation.exp(w) * Rotation.exp(so3_right_jacobian(w) @ d)).matrix()
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_right_jacobian_defect_is_second_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = _random_omega(rng, 2.5)
        d = rng.normal(size=3)
        d *= 1e-3 / np.linalg.norm(d)

        def defect(delta):
            lhs = Rotation.exp(w + delta).matrix()
            rhs = (Rotation.exp(w) * Rotation.exp(so3_right_jacobian(w) @ delta)).matrix()
            return np.linalg.norm(lhs - rhs)

        full = defect(d)
        half = defect(0.5 * d)
        assert full / max(half, 1e-300) >= 3.5


def test_right_jacobian_inverse():
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = _random_omega(rng, 2.8)
        J = so3_right_jacobian(w) @ so3_right_jacobian_inv(w)
        assert np.allclose(J, np.eye(3), atol=1e-9)


def test_pose_compose_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = Pose(Rotation.exp(_random_omega(rng)), rng.normal(size=3))
        b = Pose(Rotation.exp(_random_omega(rng)), rng.normal(size=3))
        x = rng.normal(size=3)
        assert np.allclose((a * b).apply(x), a.apply(b.apply(x)), atol=1e-10)
        ident = (a * a.inverse()).matrix()
        assert np.allclose(ident, np.eye(4), atol=1e-10)


# type -> (build from a caller's 3-vector, fields, array fields)
IMMUTABLE = {
    "Rotation": (lambda a: Rotation.exp(a), (), ("q",)),
    "Pose": (lambda a: Pose(Rotation.exp(a), a),
             ("rotation", "translation"), ("translation",)),
    "SimTransform": (lambda a: SimTransform(Rotation.exp(a), a, 2.0),
                     ("rotation", "translation", "scale"), ("translation",)),
    "PoseState": (lambda a: PoseState(Pose(Rotation.exp(a), a), a),
                  ("pose", "velocity", "bias", "timestamp"), ("velocity",)),
    "BiasState": (lambda a: BiasState(a, a), ("gyro_bias", "accel_bias"),
                  ("gyro_bias", "accel_bias")),
    "GravityModel": (lambda a: GravityModel(Rotation.exp(a)),
                     ("R_wg", "magnitude"), ()),
}


@pytest.mark.parametrize("make, names, arrays", IMMUTABLE.values(),
                         ids=list(IMMUTABLE))
def test_values_are_immutable(make, names, arrays):
    a = np.array([0.1, -0.2, 0.3])
    value = make(a)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[0] = 7.0
    # the value owns its arrays: the caller's stays writable and apart
    a[:] = 7.0
    assert not any(np.any(getattr(value, name) == 7.0) for name in arrays)


def test_sim3_apply_identity():
    s = SimTransform.identity()
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(s.apply(x), x)


def test_sim3_apply_pure_scale():
    s = SimTransform(Rotation.identity(), np.zeros(3), 2.0)
    assert np.allclose(s.apply(np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0])


def test_sim3_composition_law():
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = SimTransform(Rotation.exp(_random_omega(rng)), rng.normal(size=3), rng.uniform(0.2, 5.0))
        b = SimTransform(Rotation.exp(_random_omega(rng)), rng.normal(size=3), rng.uniform(0.2, 5.0))
        x = rng.normal(size=3)
        assert np.allclose((a * b).apply(x), a.apply(b.apply(x)), atol=1e-10)


def test_sim3_scale_positive_enforced():
    with pytest.raises(ValueError):
        SimTransform(Rotation.identity(), np.zeros(3), -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
    ).filter(lambda t: 1e-8 < np.linalg.norm(t) < 1.0),
    st.floats(1e-6, np.pi - 1e-6),
)
def test_so3_round_trip_property(axis, angle):
    axis = np.asarray(axis)
    w = axis / np.linalg.norm(axis) * angle
    assert np.allclose(Rotation.exp(w).log(), w, atol=1e-10)
