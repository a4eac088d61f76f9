"""The built-in families: presets, descriptors and the per-process compile."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

import steercrit.families
from steercrit import (
    FAMILIES,
    FAMILY_QUBIT_XZ,
    FAMILY_QUTRIT_B1B2,
    FamilyError,
    InvalidStateError,
    MeasurementSettings,
    Observable,
    family_descriptor,
    family_moments,
    family_observables,
    find_threshold,
    sweep,
    sweep_csv_text,
)
from steercrit.thresholds import family_evaluator

ENGINE_MODES = ("linear-g", "conditional-mean")
GOLDEN = (math.sqrt(5) - 1) / 2


def _bits(record) -> dict:
    return {k: np.float64(v).tobytes() for k, v in vars(record).items()}


@pytest.mark.parametrize("family", FAMILIES)
def test_compiled_arrays_are_read_only(family):
    # one compiled record serves every later call in the process, so a
    # write to it would change every later evaluation of the family
    settings_, ends = steercrit.families._compiled(family)
    arrays = (ends, settings_.products, *settings_.outcome_weights)
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    assert ends.shape == settings_.shape + (2,)


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_family_moments_accepts_a_float_p(family, mode):
    moments_at = functools.partial(family_moments, family)
    evaluator = family_evaluator(family, "srur", mode)
    for p in (0.0, 0.25, GOLDEN, 1.0):
        record = moments_at(p)
        assert all(type(v) is float for v in vars(record).values())
        assert _bits(record) == _bits(evaluator(p).moments)
        assert _bits(record) == _bits(moments_at(np.array([p])).row(0))


@pytest.mark.parametrize("family", FAMILIES)
def test_descriptor_labels_match_the_observables(family, monkeypatch):
    b1, b2 = family_observables(family)
    built = []
    real = Observable.__post_init__
    monkeypatch.setattr(Observable, "__post_init__", lambda self: built.append(self) or real(self))
    d = {FAMILY_QUBIT_XZ: 2, FAMILY_QUTRIT_B1B2: 3}[family]
    assert family_descriptor(family, 0.7) == (
        f"isotropic(d={d}, p=0.7); observables=({b1.label},{b2.label})"
    )
    assert built == []


def test_descriptor_bytes():
    assert family_descriptor(FAMILY_QUBIT_XZ, GOLDEN) == (
        "isotropic(d=2, p=0.61803398875); observables=(Sx,Sz)"
    )
    assert family_descriptor(FAMILY_QUTRIT_B1B2, 0.9) == (
        "isotropic(d=3, p=0.9); observables=(B1,B2)"
    )


def _count_compiles(monkeypatch) -> tuple[list, list]:
    builds, states = [], []
    build = MeasurementSettings.build
    isotropic = steercrit.families.isotropic
    monkeypatch.setattr(
        MeasurementSettings, "build",
        classmethod(lambda cls, *a, **k: builds.append(a) or build(*a, **k)),
    )
    monkeypatch.setattr(
        steercrit.families, "isotropic", lambda *a: states.append(a) or isotropic(*a)
    )
    return builds, states


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_warm_and_cold_family_give_the_same_bytes(family, mode, monkeypatch):
    builds, states = _count_compiles(monkeypatch)
    outputs = (
        lambda: sweep_csv_text(sweep(family, mode=mode, steps=1001)),
        lambda: json.dumps(find_threshold(family, mode=mode).to_json_dict()),
        lambda: json.dumps(family_evaluator(family, "srur", mode)(GOLDEN).to_json_dict()),
    )
    for output in outputs:
        steercrit.families._compiled.cache_clear()
        cold = output()
        assert (len(builds), len(states)) == (1, 2)
        builds.clear()
        states.clear()
        warm = output()
        assert (len(builds), len(states)) == (0, 0)
        assert warm == cold


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_warm_family_still_rejects_p_outside_unit_interval(family, mode):
    moments_at = functools.partial(family_moments, family)
    evaluator = family_evaluator(family, "srur", mode)
    evaluator(0.5)
    for p in (-0.1, 1.5, float("nan")):
        for call in (moments_at, evaluator, lambda p: moments_at([0.5, p])):
            with pytest.raises(InvalidStateError, match="p must lie in"):
                call(p)
    assert steercrit.families._compiled.cache_info().currsize == 1


def test_unknown_family_is_not_compiled():
    with pytest.raises(FamilyError, match="unknown family"):
        family_moments("qubit-xy", 0.5)
    assert steercrit.families._compiled.cache_info().currsize == 0
