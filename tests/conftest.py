"""Shared randomized-input helpers.

Every generator takes an explicit numpy Generator so tests stay
reproducible; seeds are fixed per test (or drawn by hypothesis).
"""

from __future__ import annotations

import numpy as np
import pytest

import steercrit.families
from steercrit import DensityMatrix, Observable


@pytest.fixture(autouse=True)
def cold_family_cache():
    """Every test starts with no family compiled, so none depends on the
    order tests run in or inherits a compile made under another test's
    monkeypatch."""
    steercrit.families._compiled.cache_clear()


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_observable(rng: np.random.Generator, d: int, label: str = "R") -> Observable:
    return Observable(label, random_hermitian(rng, d))


def rotated(rng: np.random.Generator, label: str, spectrum) -> Observable:
    """U diag(spectrum) U^dagger for a Haar-random U (QR of a complex
    Gaussian, phases fixed)."""
    d = len(spectrum)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return Observable(label, u @ np.diag(spectrum) @ u.conj().T)


def random_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(d,))


def random_bipartite(
    rng: np.random.Generator, da: int, db: int, rank: int | None = None
) -> DensityMatrix:
    """A random bipartite state, of full rank unless rank is given (1 is pure)."""
    n = da * db
    k = n if rank is None else rank
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=(da, db))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
