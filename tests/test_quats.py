import numpy as np
import pytest

from synthloc import quats


def random_quat(rng):
    q = rng.standard_normal(4)
    return quats.canonical(q)


def test_canonical_unit_norm_and_sign():
    q = quats.canonical(np.array([-2.0, 1.0, 0.5, -0.5]))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert q[0] >= 0


def test_canonical_rejects_zero():
    with pytest.raises(ValueError):
        quats.canonical(np.zeros(4))


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = random_quat(rng)
        R = quats.to_matrix(q)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        q2 = quats.from_matrix(R)
        assert np.allclose(q, q2, atol=1e-9)


def test_from_axis_angle_matches_matrix():
    q = quats.from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    R = quats.to_matrix(q)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(R, expected, atol=1e-12)


def test_rotation_angle_deg():
    q = quats.from_axis_angle(np.array([1.0, 1.0, 0.0]), np.radians(33.0))
    assert abs(quats.rotation_angle_deg(quats.to_matrix(q)) - 33.0) < 1e-9


def test_chordal_mean_single():
    q = quats.from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.3)
    assert np.allclose(quats.chordal_mean([q]), q)


def test_chordal_mean_handles_double_cover():
    q = quats.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.4)
    mean = quats.chordal_mean([q, -q, q])
    assert np.allclose(mean, q, atol=1e-12)


def test_chordal_mean_halfway():
    q1 = np.array([1.0, 0.0, 0.0, 0.0])
    q2 = quats.from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    mean = quats.chordal_mean([q1, q2])
    assert abs(quats.rotation_angle_deg(quats.to_matrix(mean)) - 45.0) < 1e-9
