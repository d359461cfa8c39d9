import math

import numpy as np
import pytest

from neckglue.config import Configuration


def rot_e1(angle: float) -> np.ndarray:
    """Rotation about the first coordinate axis of R^3."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_orthogonal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def flagship() -> Configuration:
    """Two points on the e_1 axis, identity and quarter-turn rotations,
    A0 = I: the worked two-end example with alpha = (4, 12)."""
    return Configuration(
        n=3,
        points=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        rotations=[np.eye(3), rot_e1(math.pi / 2)],
        A0=np.eye(3),
        epsilon=1e-4,
        rho_star=0.45,
    )


def flagship_at(epsilon: float, rho_star: float = 0.45) -> Configuration:
    return Configuration(
        n=3,
        points=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        rotations=[np.eye(3), rot_e1(math.pi / 2)],
        A0=np.eye(3),
        epsilon=epsilon,
        rho_star=rho_star,
    )


def quarter_turn_n5(epsilon: float = 1e-4) -> Configuration:
    """Ends +-e_1 in R^5, the second turned a quarter in (e_3, e_4), A0 = I:
    alpha = (48, 80)."""
    n = 5
    turn = np.eye(n)[[0, 1, 3, 2, 4]] * np.array([1.0, 1.0, -1.0, 1.0, 1.0])[:, None]
    return Configuration(n=n, points=[np.eye(n)[0], -np.eye(n)[0]],
                         rotations=[np.eye(n), turn], A0=np.eye(n),
                         epsilon=epsilon, rho_star=0.45)
