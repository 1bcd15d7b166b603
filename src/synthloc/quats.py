"""Unit-quaternion helpers, (w, x, y, z) convention with canonical sign w >= 0."""

from __future__ import annotations

import numpy as np


def canonical(q: np.ndarray) -> np.ndarray:
    """Normalize to unit length and flip sign so that w >= 0."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    if q[0] < 0.0 or (q[0] == 0.0 and q[np.nonzero(q)[0][0]] < 0.0):
        q = -q
    return q


def from_axis_angle(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle_rad
    return canonical(np.concatenate(([np.cos(half)], np.sin(half) * axis)))


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array(
                [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            q = np.array(
                [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            q = np.array(
                [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
            )
    return canonical(q)


def rotation_angle_deg(R: np.ndarray) -> float:
    """Angle of a rotation matrix in degrees, in [0, 180]."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def chordal_mean(quats: list[np.ndarray]) -> np.ndarray:
    """Sign-align all quaternions to the first one, average, renormalize.

    Naive component averaging is ill-defined under the q/-q double cover;
    aligning signs first makes the arithmetic mean a usable chordal mean
    for nearby rotations.
    """
    if not quats:
        raise ValueError("no quaternions to average")
    ref = np.asarray(quats[0], dtype=float)
    acc = np.zeros(4)
    for q in quats:
        q = np.asarray(q, dtype=float)
        acc += -q if float(np.dot(q, ref)) < 0.0 else q
    return canonical(acc)
