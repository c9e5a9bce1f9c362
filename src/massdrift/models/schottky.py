"""Free group of hyperbolic disk isometries in ping-pong position.

Generators are given as real 2x2 determinant-one matrices in the half-plane
convention and conjugated to the disk model internally.  Construction verifies
the ping-pong configuration: the isometric-circle disks of the four generator
letters must be pairwise disjoint, which makes the group free and discrete
with an infinite-volume quotient.  Distance from a core region around the
basepoint serves as the escape proxy.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import PingPongViolation

LETTERS = ("a", "A", "b", "B")
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}

_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def default_generator_matrices() -> tuple[np.ndarray, np.ndarray]:
    """a = diag(3, 1/3); b = a conjugated by the quarter-turn about the basepoint."""
    a = np.diag([3.0, 1.0 / 3.0])
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    r = np.array([[c, s], [-s, c]])
    return a, r @ a @ r.T


def to_disk(m: np.ndarray) -> np.ndarray:
    """Conjugate a half-plane isometry matrix to the unit-disk model."""
    return _CAYLEY @ np.asarray(m, dtype=complex) @ _CAYLEY_INV


def _isometric_disk(m: np.ndarray) -> tuple[complex, float]:
    gamma, delta = m[1, 0], m[1, 1]
    if abs(gamma) < 1e-14:
        raise PingPongViolation("generator fixes the basepoint (no isometric circle)")
    return -delta / gamma, 1.0 / abs(gamma)


def translation_length(m: np.ndarray) -> float:
    """Hyperbolic translation length; zero for non-hyperbolic elements."""
    t = abs(np.trace(np.asarray(m, dtype=complex))) / 2.0
    if t <= 1.0:
        return 0.0
    return 2.0 * math.acosh(t)


class SchottkyGroup:
    """Rank-2 Schottky group with validated ping-pong disks."""

    def __init__(self, a=None, b=None):
        if a is None or b is None:
            da, db = default_generator_matrices()
            a = da if a is None else np.asarray(a, dtype=float)
            b = db if b is None else np.asarray(b, dtype=float)
        for name, m in (("a", a), ("b", b)):
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det - 1.0) > 1e-9:
                raise ValueError(f"generator {name} has determinant {det}")
        self.halfplane = {"a": np.asarray(a, float),
                          "A": np.linalg.inv(a),
                          "b": np.asarray(b, float),
                          "B": np.linalg.inv(b)}
        self.disk = {s: to_disk(m) for s, m in self.halfplane.items()}
        self._check_ping_pong()
        lengths = [translation_length(a), translation_length(b)]
        if min(lengths) <= 0.0:
            raise PingPongViolation("generators must be hyperbolic")
        # core proxy: ball of half the shortest translation length
        self.core_radius = min(lengths) / 2.0

    def _check_ping_pong(self) -> None:
        disks = {s: _isometric_disk(m) for s, m in self.disk.items()}
        syms = list(disks)
        for i, s in enumerate(syms):
            for t in syms[i + 1:]:
                (c1, r1), (c2, r2) = disks[s], disks[t]
                if abs(c1 - c2) <= r1 + r2:
                    raise PingPongViolation(
                        f"isometric disks of {s!r} and {t!r} overlap")


def generator_components(mats: np.ndarray) -> np.ndarray:
    """Disk matrices (k, 2, 2) as the (8, k) float rows that ``step_batch``
    reads: real and imaginary parts of g00, g01, g10, g11."""
    return np.ascontiguousarray(
        np.asarray(mats, dtype=complex).reshape(-1, 4).view(np.float64).T)


def step_batch(row: tuple, gens: np.ndarray, letter_idx: np.ndarray) -> tuple:
    """Right-multiply each walker matrix M by its generator letter g.

    Only the first row (x, y) of M is carried, as float components
    ``(re x, im x, re y, im y)``: row 0 of M g depends on row 0 of M alone,
    and the core distance reads y.  Each complex product is written out as
    (re re - im im) + i (re im + im re), the order ``np.einsum`` uses on
    complex stacks, so the components are bit-equal to the stacked product.
    ``gens`` is ``generator_components`` of the letters' disk matrices.
    """
    xr, xi, yr, yi = row
    g00r, g00i, g01r, g01i, g10r, g10i, g11r, g11i = gens[:, letter_idx]
    # an overflowed walker is reported by its non-finite core distance
    with np.errstate(over="ignore", invalid="ignore"):
        return ((xr * g00r - xi * g00i) + (yr * g10r - yi * g10i),
                (xr * g00i + xi * g00r) + (yr * g10i + yi * g10r),
                (xr * g01r - xi * g01i) + (yr * g11r - yi * g11i),
                (xr * g01i + xi * g01r) + (yr * g11i + yi * g11r))


def core_distances(group: SchottkyGroup, row: tuple) -> np.ndarray:
    """Distance from the core ball of the basepoint's image, per walker row
    ``(re x, im x, re y, im y)``.  |y| is taken with ``np.abs`` of a complex
    array, whose rounding ``np.hypot`` does not always share."""
    y = np.empty(len(row[2]), dtype=complex)
    y.real, y.imag = row[2], row[3]
    d = 2.0 * np.arcsinh(np.abs(y))
    return np.maximum(0.0, d - group.core_radius)
