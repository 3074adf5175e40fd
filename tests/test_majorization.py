"""Tests for the LOCC convertibility classifier."""

import math

import numpy as np

from oracles import converts
from qincomp.majorization import PairLabel, classify_pair, majorizes
from qincomp.states import entropy_of_entanglement

CHI_VEC = np.array([2 / 3, 1 / 6, 1 / 6])
PI_VEC = np.array(
    [1 / 3 + 1 / (2 * math.sqrt(3)), 1 / 3, 1 / 3 - 1 / (2 * math.sqrt(3))]
)


def random_strict3(rng):
    """Strictly decreasing 3-entry probability vector with clear gaps."""
    while True:
        v = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        if v[0] - v[1] > 1e-6 and v[1] - v[2] > 1e-6:
            return v


def strict3_incomparable(a, b):
    """Nielsen's criterion read off the ends of strictly decreasing 3-entry
    vectors: incomparable iff a1 - b1 and a3 - b3 share a strict sign."""
    return bool((a[0] > b[0] and a[2] > b[2]) or (a[0] < b[0] and a[2] < b[2]))


def test_bell_converts_to_product():
    assert converts(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_probe_vectors_incomparable_both_ways():
    assert not converts(CHI_VEC, PI_VEC)
    assert not converts(PI_VEC, CHI_VEC)


def test_majorizes_reflexive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.dirichlet(np.ones(4))
        assert converts(v, v)


def test_majorizes_pads_unequal_lengths():
    assert converts(np.array([0.5, 0.5]), np.array([1.0]))
    assert not converts(np.array([1.0]), np.array([0.5, 0.5]))


def test_majorizes_reads_partial_sums_along_last_axis():
    # majorizes(sums_b, sums_a): a is majorized by b, over stacked sums,
    # with a tie inside MAJORIZATION_TOL counted as majorized
    sums_b = np.cumsum([[1.0, 0.0], [0.5, 0.5], [0.6, 0.4]], axis=-1)
    sums_a = np.cumsum([[0.5, 0.5], [1.0, 0.0], [0.6 + 1e-11, 0.4 - 1e-11]], axis=-1)
    np.testing.assert_array_equal(majorizes(sums_b, sums_a), [True, False, True])


def test_majorizes_transitive_on_sampled_triples():
    rng = np.random.default_rng(53)
    found = 0
    while found < 50:
        a, b, c = (rng.dirichlet(np.ones(3)) for _ in range(3))
        if converts(a, b) and converts(b, c):
            assert converts(a, c)
            found += 1


def test_classify_forward():
    verdict = classify_pair(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.3, 0.1]))
    assert verdict.label is PairLabel.CONVERTIBLE_FORWARD


def test_classify_equal():
    v = np.array([0.7, 0.2, 0.1])
    assert classify_pair(v, v).label is PairLabel.EQUAL


def test_classify_probe_pair_incomparable():
    assert classify_pair(CHI_VEC, PI_VEC).label is PairLabel.INCOMPARABLE


def test_classify_partial_sums_exposed():
    verdict = classify_pair(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.3, 0.1]))
    np.testing.assert_allclose(verdict.partial_sums_src, [0.5, 0.8, 1.0], atol=1e-15)
    np.testing.assert_allclose(verdict.partial_sums_dst, [0.6, 0.9, 1.0], atol=1e-15)
    # the user's vectors are sorted before their partial sums are taken
    shuffled = classify_pair(np.array([0.2, 0.5, 0.3]), np.array([0.3, 0.1, 0.6]))
    assert shuffled.label is PairLabel.CONVERTIBLE_FORWARD
    np.testing.assert_array_equal(shuffled.partial_sums_src, verdict.partial_sums_src)
    np.testing.assert_array_equal(shuffled.partial_sums_dst, verdict.partial_sums_dst)


def test_classify_mirror_labels():
    mirror = {
        PairLabel.CONVERTIBLE_FORWARD: PairLabel.CONVERTIBLE_BACKWARD,
        PairLabel.CONVERTIBLE_BACKWARD: PairLabel.CONVERTIBLE_FORWARD,
        PairLabel.EQUAL: PairLabel.EQUAL,
        PairLabel.INCOMPARABLE: PairLabel.INCOMPARABLE,
    }
    rng = np.random.default_rng(59)
    for _ in range(200):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        assert classify_pair(b, a).label is mirror[classify_pair(a, b).label]


def test_forward_conversion_never_gains_entropy():
    rng = np.random.default_rng(61)
    for _ in range(300):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        if classify_pair(a, b).label is PairLabel.CONVERTIBLE_FORWARD:
            assert entropy_of_entanglement(np.sort(a)[::-1]) >= (
                entropy_of_entanglement(np.sort(b)[::-1]) - 1e-12
            )


def test_strict3_interleaved_pair():
    b = np.array([0.62, 0.30, 0.08])
    assert strict3_incomparable(PI_VEC, b) == (
        classify_pair(PI_VEC, b).label is PairLabel.INCOMPARABLE
    )


def test_strict3_one_sided_pair_is_comparable():
    # a1 > b1 but a3 < b3: neither clause holds, and the partial sums
    # confirm plain backward convertibility
    a = np.array([0.6, 0.3, 0.1])
    b = np.array([0.5, 0.35, 0.15])
    assert strict3_incomparable(a, b) is False
    assert classify_pair(a, b).label is PairLabel.CONVERTIBLE_BACKWARD


def test_strict3_matches_full_classifier():
    rng = np.random.default_rng(67)
    for _ in range(10_000):
        a = random_strict3(rng)
        b = random_strict3(rng)
        expected = classify_pair(a, b).label is PairLabel.INCOMPARABLE
        assert strict3_incomparable(a, b) == expected


def test_qubit_pairs_never_incomparable():
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        a = rng.dirichlet(np.ones(2))
        b = rng.dirichlet(np.ones(2))
        assert classify_pair(a, b).label is not PairLabel.INCOMPARABLE
