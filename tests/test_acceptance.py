"""Acceptance gate: one check per shipped claim, one printed verdict line each.

Each test prints `[criterion NN] <description>: PASS|FAIL` and then asserts,
so a full `pytest -v` run shows the verdict table even on failure.
"""

import math

import numpy as np

from oracles import (
    CHI_INITIAL_SCHMIDT,
    chi_final_unitary_only,
    chi_initial_density_closed_form,
    converts,
    point,
    real_ab,
    spectrum_at,
)
from qincomp.cases import Prediction
from qincomp.majorization import PairLabel, classify_pair
from qincomp.scenarios import (
    PI_INITIAL_SCHMIDT,
    build_chi_initial,
    chi_final,
    cubic_coefficients,
    pi_final,
    pqr,
)
from qincomp.states import entropy_of_entanglement, reduced_density_a, schmidt_vector
from qincomp.sweep import sweep_real

SQ2 = 1.0 / math.sqrt(2.0)


def _report(index: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {index:02d}] {description}: {status}{suffix}")
    assert ok, f"criterion {index:02d} failed{suffix}"


def random_unitary_params(rng):
    """Angles (theta, phi_a, phi_b), uniform in the canonical range [0, 2pi)."""
    return rng.uniform(0.0, 2.0 * math.pi, size=3)


def test_criterion_01_conjugation_initial_schmidt_vector():
    vec = schmidt_vector(build_chi_initial())
    ok = bool(np.all(np.abs(vec - CHI_INITIAL_SCHMIDT) < 1e-12))
    _report(1, "initial Schmidt vector equals (2/3, 1/6, 1/6) within 1e-12", ok)


def test_criterion_02_conjugation_final_vector_parameter_free():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        vec = schmidt_vector(chi_final(*random_unitary_params(rng)))
        worst = max(worst, float(np.max(np.abs(vec - PI_INITIAL_SCHMIDT))))
    _report(
        2,
        "final Schmidt vector is parameter-free at "
        "(1/3+1/(2sqrt3), 1/3, 1/3-1/(2sqrt3)) within 1e-10",
        worst < 1e-10,
        f"max deviation {worst:.2e} over 100 random parameter triples",
    )


def test_criterion_03_conjugation_pair_incomparable_with_interleaving():
    initial = schmidt_vector(build_chi_initial())
    final = schmidt_vector(chi_final(0.7, 1.9, 4.2))
    label = classify_pair(initial, final).label
    chain = (
        initial[0] > final[0] > final[1] > initial[1] > final[2]
        and math.isclose(initial[1], initial[2], abs_tol=1e-12)
    )
    ok = label is PairLabel.INCOMPARABLE and chain
    _report(
        3,
        "initial/final pair is INCOMPARABLE with interleaved Schmidt values",
        ok,
        f"label {label.value}",
    )


def test_criterion_04_unitary_alone_leaves_reduced_density_fixed():
    rng = np.random.default_rng(4)
    worst = 0.0
    expected = chi_initial_density_closed_form()
    for _ in range(100):
        rho = reduced_density_a(chi_final_unitary_only(*random_unitary_params(rng)))
        worst = max(worst, float(np.max(np.abs(rho - expected))))
    _report(
        4,
        "unitary-only evolution leaves the remote density matrix unchanged "
        "within 1e-12",
        worst < 1e-12,
        f"max entry deviation {worst:.2e} over 100 random parameter triples",
    )


def test_criterion_05_flipping_and_hadamard_points():
    flip_ab = real_ab(0.0, 1.0)
    flip_spec = spectrum_at(*flip_ab)
    flip_obs = point(0, 1)["observed"]
    had_ab = real_ab(SQ2, SQ2)
    had_obs = point(SQ2, SQ2)["observed"]
    ok = (
        abs(flip_ab[0] - 0.25) < 1e-12
        and abs(flip_ab[1] - 0.25) < 1e-12
        and bool(np.all(np.abs(flip_spec - CHI_INITIAL_SCHMIDT) < 1e-12))
        and flip_obs is PairLabel.INCOMPARABLE
        and abs(had_ab[0] - 1 / 3) < 1e-12
        and abs(had_ab[1] - 0.25) < 1e-12
        and had_obs is PairLabel.INCOMPARABLE
    )
    _report(
        5,
        "flipping gives (A,B)=(1/4,1/4) with spectrum (2/3,1/6,1/6) and "
        "Hadamard gives (A,B)=(1/3,1/4), both INCOMPARABLE",
        ok,
        f"flipping {flip_obs.value}, Hadamard {had_obs.value}",
    )


def test_criterion_06_identity_point_is_equal():
    spec = spectrum_at(*real_ab(1.0, 0.0))
    observed = point(1, 0)["observed"]
    ok = (
        bool(np.all(np.abs(spec - PI_INITIAL_SCHMIDT) < 1e-12))
        and observed is PairLabel.EQUAL
    )
    _report(
        6,
        "identity amplitudes reproduce the initial spectrum within 1e-12 "
        "with verdict EQUAL",
        ok,
        f"observed {observed.value}",
    )


def test_criterion_07_zero_b_family_gains_entanglement():
    details = []
    ok = True
    for degrees in (67.5, -22.5):
        phi = math.radians(degrees)
        initial = PI_INITIAL_SCHMIDT
        final = schmidt_vector(pi_final(math.cos(phi), math.sin(phi)))
        strictly_majorized = (
            converts(final, initial)
            and classify_pair(initial, final).label is PairLabel.CONVERTIBLE_BACKWARD
        )
        delta = entropy_of_entanglement(final) - entropy_of_entanglement(initial)
        ok = ok and strictly_majorized and delta > 0.0
        details.append(f"{degrees}deg delta {delta:+.4f}")
    _report(
        7,
        "the B=0 nontrivial real family strictly gains entanglement",
        ok,
        ", ".join(details),
    )


def test_criterion_08_dual_route_oracle_equivalence():
    rng = np.random.default_rng(8)
    worst_spec = 0.0
    for _ in range(1000):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        trig = spectrum_at(*cubic_coefficients(*pqr(raw[0], raw[1])))
        direct = schmidt_vector(pi_final(raw[0], raw[1]))
        worst_spec = max(worst_spec, float(np.max(np.abs(trig - direct))))
    worst_ab = 0.0
    for _ in range(1000):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha, beta = math.cos(phi), math.sin(phi)
        shortcut = real_ab(alpha, beta)
        via_pqr = cubic_coefficients(*pqr(alpha, beta))
        worst_ab = max(
            worst_ab,
            abs(shortcut[0] - via_pqr[0]),
            abs(shortcut[1] - via_pqr[1]),
        )
    ok = worst_spec < 1e-10 and worst_ab < 1e-12
    _report(
        8,
        "trig and Jacobi spectra agree within 1e-10 on 1000 complex points; "
        "shortcut and coefficient-path (A,B) agree within 1e-12 on 1000 real "
        "points",
        ok,
        f"max spectrum gap {worst_spec:.2e}, max (A,B) gap {worst_ab:.2e}",
    )


def test_criterion_09_real_sweep_properties():
    result = sweep_real(3600)
    incomparable = result["observed"] == PairLabel.INCOMPARABLE
    predicted_inc = result["predicted"] == Prediction.INCOMPARABLE
    clause_predictions = bool(np.all(incomparable[predicted_inc]))
    high_a = result["A"] > 0.25 + 1e-12
    clause_positive_b = bool(np.all(result["B"][high_a] > 0.0))
    fraction = int(np.count_nonzero(incomparable)) / len(incomparable)
    clause_fraction = fraction > 0.5
    ok = clause_predictions and clause_positive_b and clause_fraction
    _report(
        9,
        "real sweep n=3600: predicted-INCOMPARABLE always observed "
        "INCOMPARABLE; A>1/4 forces B>0; incomparable fraction exceeds 0.5",
        ok,
        f"predicted-INC observed-INC {np.count_nonzero(incomparable[predicted_inc])}"
        f"/{np.count_nonzero(predicted_inc)}; A>1/4 points all B>0: {clause_positive_b}; "
        f"incomparable fraction {fraction:.4f}",
    )


def test_criterion_10_no_incomparability_in_dimension_two():
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(10000):
        a = np.sort(rng.dirichlet(np.ones(2)))[::-1]
        b = np.sort(rng.dirichlet(np.ones(2)))[::-1]
        if classify_pair(a, b).label is PairLabel.INCOMPARABLE:
            hits += 1
    _report(
        10,
        "no incomparable pair exists among 10000 random two-term Schmidt "
        "vectors",
        hits == 0,
        f"{hits} incomparable pairs",
    )
