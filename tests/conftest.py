"""Shared model grids for property and acceptance tests, and a strict
JSON parser for the exporters' output."""

from __future__ import annotations

import json

import numpy as np
import pytest

from consensus_spectra import Kind, NetworkModel

A_GRID = tuple(round(0.1 * i, 1) for i in range(11))

TORUS_SIDES = (3, 4, 5, 8)

# the 3-ring's pair has equal moduli at every a; these reach from exact
# averaging (a = 0) through values too small to move its h to a = 1
THREE_RING_A = (0.0, 1e-15, 1e-9, 0.3, 1.0)


def ring_models(a: float):
    return [NetworkModel(Kind.RING, a=a, n=n) for n in range(3, 65)]


def rnearest_models(a: float):
    return [
        NetworkModel(Kind.R_NEAREST_RING, a=a, n=n, r=r)
        for n in range(6, 65)
        for r in range(1, 6)
        if n >= 2 * r + 2
    ]


def torus_models(a: float):
    return [
        NetworkModel(Kind.TORUS, a=a, dims=(k1, k2))
        for k1 in TORUS_SIDES
        for k2 in TORUS_SIDES
    ]


def grid_models(a: float):
    return ring_models(a) + rnearest_models(a) + torus_models(a)


def strict_json(text):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens
    that json.dumps writes by default but JSON does not allow."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def pure_parity(model: NetworkModel) -> bool:
    """True when the model falls in a parity case the closed-form
    catalog covers."""
    if model.kind is Kind.TORUS:
        return len({k % 2 for k in model.dims}) == 1
    return True


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
