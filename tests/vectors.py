"""Fraction vector sums and a zero test for the reference computations of
the tests."""

from knx.scalars import Vector


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def is_zero_vector(u: Vector) -> bool:
    return all(a == 0 for a in u)
