"""The cross-validation suite itself: green on all fixtures, loud on faults."""

import sys
from collections import Counter

import numpy as np
import pytest

from graphscatter import classical, scattering, zeta
from graphscatter.verify import (
    _complex_lams, _real_lams, all_passed, first_failure, run_identity_suite,
)
from conftest import fixture_graphs
from reference import (
    det_closed_form_measure, functional_equation_measure, no_backscatter_secular_measure,
    ratio_measure, trace_oracle_measure, unitarity_measure, vertex_reduction_measure,
)

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


def _draws(seed):
    """The suite's sample points for seed, drawn in its order: unitarity, det U, ratio, trace,
    then the functional equation's z and the no-backscatter secular's mu one point at a time."""
    rng = np.random.default_rng(seed)
    real, det_pts, ratio_pts = _real_lams(rng, 100), _complex_lams(rng, 30), _complex_lams(rng, 30)
    trace_pts = _complex_lams(rng, 5, im_low=-2.0, im_high=0.0)
    z_pts = [rng.uniform(0.7, 1.4) * np.exp(1j * rng.uniform(-np.pi, np.pi)) for _ in range(20)]
    mu_pts = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(20)]
    return real, det_pts, ratio_pts, trace_pts, z_pts, mu_pts


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt-sigma"])
@pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
def test_stacked_checks_match_per_point_oracle(name, g, kind, corrupt, catalogs_depth8):
    """The checks that take their points as stacks read, bit for bit, what one
    call per sample point reads (reference.py); with corrupt_sigma every
    stacked U is corrupted, as each per-point U is."""
    for seed in (0, 1, 5):
        results = run_identity_suite(g, seed=seed, kind=kind, corrupt_sigma=corrupt)
        got = {r.name: r for r in results}
        real, det_pts, ratio_pts, trace_pts, z_pts, mu_pts = _draws(seed)
        spread, mean = ratio_measure(g, ratio_pts, kind)
        want = {
            "unitarity": unitarity_measure(g, real, kind, corrupt),
            "det_closed_form": det_closed_form_measure(g, det_pts, kind, corrupt),
            "vertex_reduction": vertex_reduction_measure(g, det_pts, kind, corrupt),
            "identity_ratio_constant": spread,
            "trace_power_oracle": trace_oracle_measure(
                g, catalogs_depth8[name], trace_pts, kind, corrupt
            ),
        }
        regular = g.is_regular and not corrupt and kind == "standard"
        assert ("functional_equation" in got) is regular
        if regular:
            want["functional_equation"] = functional_equation_measure(g, z_pts)
        assert ("no_backscatter_secular" in got) is (regular and g.regular_degree > 2)
        if "no_backscatter_secular" in got:
            want["no_backscatter_secular"] = no_backscatter_secular_measure(g, mu_pts)
        for check, value in want.items():
            assert np.float64(got[check].measure).tobytes() == np.float64(value).tobytes(), (
                seed, check
            )
        assert np.complex128(got["identity_ratio_constant"].detail["mean"]).tobytes() == (
            np.complex128(mean).tobytes()
        )
        assert got["unitarity"].passed is not corrupt
        assert got["vertex_reduction"].passed is not corrupt


@pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
def test_one_matrix_stacks_change_nothing(name, g, kind, monkeypatch):
    """Stacks cut down to one matrix each give the same results as whole ones."""
    whole = run_identity_suite(g, seed=3, kind=kind)
    monkeypatch.setattr(scattering, "_STACK_BYTES", 1)
    assert len(next(scattering._stacks(np.zeros(100), 2 * g.num_edges))) == 1
    single = run_identity_suite(g, seed=3, kind=kind)
    assert [(r.name, r.passed, r.measure, r.detail) for r in single] == [
        (r.name, r.passed, r.measure, r.detail) for r in whole
    ]


@pytest.mark.parametrize("whole", [True, False], ids=["whole-stacks", "one-matrix-stacks"])
def test_regular_checks_take_one_determinant_per_stack(k4, monkeypatch, whole):
    """On K4 the functional-equation and no-backscatter checks take one
    determinant call per `_stacks` stack of their points, not one per point."""
    if not whole:
        monkeypatch.setattr(scattering, "_STACK_BYTES", 1)
    callers = []
    for module in (zeta, classical):
        def spy(a, real=module.determinant):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(a)
        monkeypatch.setattr(module, "determinant", spy)
    run_identity_suite(k4, seed=1)

    def stacks(count, n):
        return len(list(scattering._stacks(np.zeros(count), n)))

    assert Counter(callers) == {
        "regular_zeta_z": stacks(20, 4),  # gamma at every 1/z and conj(z) of a stack of z
        "ihara_zeta_det": 1 + stacks(20, 12),  # ihara_product_vs_det's point, then the mu stacks
        "classical_secular": stacks(20, 12),
    }
    assert sum(Counter(callers).values()) == (4 if whole else 61)
