"""The cross-validation suite itself: green on all fixtures, loud on faults."""

import numpy as np
import pytest

from graphscatter import zeta
from graphscatter.verify import all_passed, first_failure, run_identity_suite
from conftest import fixture_graphs

# draws z = 1.0011 + 0.0011i on K3,3, next to the pole of gamma at z = 1
K33_NEAR_POLE_SEED = 508546690


@pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
def test_all_checks_pass(name, g, kind):
    results = run_identity_suite(g, seed=1, kind=kind)
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"{name}: {failing}"


def test_ratio_constant_reported(k4):
    results = run_identity_suite(k4, seed=1)
    ratio = next(r for r in results if r.name == "identity_ratio_constant")
    # constant across lambda, with value 2^B i^V = 64 for K4 (not 1)
    assert ratio.passed
    assert ratio.detail["mean"] == pytest.approx(64.0)
    assert ratio.detail["closed_form"] == pytest.approx(64.0)


def test_corrupted_sigma_fails_by_name(k4):
    results = run_identity_suite(k4, seed=1, corrupt_sigma=True)
    assert not all_passed(results)
    assert first_failure(results).name == "unitarity"


def test_deterministic_given_seed(c3):
    a = run_identity_suite(c3, seed=5)
    b = run_identity_suite(c3, seed=5)
    assert [(r.name, r.measure) for r in a] == [(r.name, r.measure) for r in b]


def _functional_equation(results):
    return next(r for r in results if r.name == "functional_equation")


def test_functional_equation_near_a_pole(k33):
    check = _functional_equation(run_identity_suite(k33, seed=K33_NEAR_POLE_SEED))
    assert check.passed, check.measure


def test_functional_equation_catches_a_perturbed_zeta(k33, monkeypatch):
    exact = zeta.regular_zeta_z
    monkeypatch.setattr(zeta, "regular_zeta_z", lambda g, z: exact(g, z) * (1.0 + 1e-6 * z))
    check = _functional_equation(run_identity_suite(k33, seed=K33_NEAR_POLE_SEED))
    assert check.measure > 1e-8
