"""Helpers shared by the workloads: seeded draws and plain-data snapshots."""

from __future__ import annotations

HEIGHT = 50  # numerator and denominator bound of drawn rationals, as in the CLI


def field_tuple(field) -> tuple:
    """(p, kind, d): the description the reference code in ``oracle`` takes."""
    return (field.p, field.kind, field.d)


def coords(x) -> tuple:
    return (x.a, x.b)


def mat_coords(g) -> tuple:
    return (coords(g.a), coords(g.b), coords(g.c), coords(g.d))


def draw_ints(rng, ext: bool) -> tuple:
    """(A, B, D) of n0/m0 + (n1/m1) sqrt(d), drawn like the CLI's sampler:
    numerators in [-HEIGHT, HEIGHT], denominators in [1, HEIGHT]."""
    n0, m0 = rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)
    if not ext:
        return n0, 0, m0
    n1, m1 = rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)
    return n0 * m1, n1 * m0, m0 * m1
