"""Shared fixtures."""
import pytest

from hilb2 import permgroup


class Products:
    """``count`` permutation products so far, and ``points``, the domain
    sizes of their right factors summed (one step per point of each)."""

    def __init__(self) -> None:
        self.count = 0
        self.points = 0


@pytest.fixture
def compositions(monkeypatch):
    """Counts every permutation product from here on, where it is made.

    Each product, ``*`` as well as every step of the shared walks of
    ``tables``, is a call of a map x -> x·g that
    ``permgroup._right_multiplication`` builds, so wrapping that builder
    counts them all."""
    products = Products()
    build = permgroup._right_multiplication

    def counted_build(g):
        step = build(g)

        def counted_step(x):
            products.count += 1
            products.points += len(g)
            return step(x)
        return counted_step

    monkeypatch.setattr(permgroup, "_right_multiplication", counted_build)
    return products
