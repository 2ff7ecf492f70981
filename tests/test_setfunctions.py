import itertools

import numpy as np
import pytest

from conftest import random_cosine_kernel, random_instance, random_self_kernel
from streamline.setfunctions import (
    FLCG,
    FLQMI,
    FacilityLocation,
    GroundIndexError,
    flqmi_normalizer,
    scg_value,
    smi_value,
)


def brute_fl(S, A):
    """Definitional facility location: explicit loops, empty max = 0."""
    total = 0.0
    for i in range(S.shape[0]):
        total += max((S[i, j] for j in A), default=0.0)
    return total


def brute_flqmi(S, A):
    if not A:
        return 0.0
    first = sum(max(S[i, j] for j in range(S.shape[1])) for i in A)
    second = sum(max(S[i, j] for i in A) for j in range(S.shape[1]))
    return first + second


def brute_flcg(S_uu, S_up, A):
    total = 0.0
    for i in range(S_uu.shape[0]):
        best_a = max((S_uu[i, j] for j in A), default=0.0)
        best_p = max((S_up[i, j] for j in range(S_up.shape[1])), default=0.0)
        total += max(best_a - best_p, 0.0)
    return total


def test_fl_empty_set_is_zero():
    f = FacilityLocation(np.ones((3, 3)))
    assert f.value([]) == 0.0


def test_fl_full_set_unit_diagonal():
    S = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.5], [0.2, 0.5, 1.0]])
    assert FacilityLocation(S).value([0, 1, 2]) == pytest.approx(3.0)


def test_fl_hand_example():
    S = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert FacilityLocation(S).value([0]) == pytest.approx(1.2)


def test_flqmi_empty_and_singleton():
    S = np.array([[0.37]])
    f = FLQMI(S)
    assert f.value([]) == 0.0
    assert f.value([0]) == pytest.approx(2 * 0.37)


def test_flqmi_hand_example():
    S = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert FLQMI(S).value([0, 1]) == pytest.approx(3.4)


def test_flcg_empty_private_equals_fl():
    rng = np.random.default_rng(0)
    S = random_self_kernel(rng, 6)
    fl = FacilityLocation(S)
    cg = FLCG(S)  # no private set
    for _ in range(20):
        A = list(rng.choice(6, size=rng.integers(0, 7), replace=False))
        assert cg.value(A) == pytest.approx(fl.value(A), abs=1e-9)


def test_flcg_zero_cross_kernel_equals_fl():
    rng = np.random.default_rng(1)
    S = random_self_kernel(rng, 5)
    cg = FLCG(S, np.zeros((5, 2)))
    fl = FacilityLocation(S)
    A = [0, 3]
    assert cg.value(A) == pytest.approx(fl.value(A), abs=1e-9)


def test_flcg_hand_example():
    S_uu = np.array([[1.0, 0.5], [0.5, 1.0]])
    S_up = np.array([[0.9], [0.1]])
    assert FLCG(S_uu, S_up).value([1]) == pytest.approx(0.9)


def test_flcg_empty_set_is_zero():
    assert FLCG(np.ones((2, 2)), np.ones((2, 1))).value([]) == 0.0


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
def test_values_match_bruteforce(kind):
    rng = np.random.default_rng(2)
    for _ in range(25):
        S_uu = random_self_kernel(rng, 7)
        S_up = random_cosine_kernel(rng, 7, 3)
        if kind == "fl":
            inst, oracle = FacilityLocation(S_uu), lambda A: brute_fl(S_uu, A)
        elif kind == "flqmi":
            inst, oracle = FLQMI(S_up), lambda A: brute_flqmi(S_up, A)
        else:
            inst, oracle = FLCG(S_uu, S_up), lambda A: brute_flcg(S_uu, S_up, A)
        A = list(rng.choice(7, size=rng.integers(0, 8), replace=False))
        assert inst.value(A) == pytest.approx(oracle(A), abs=1e-9)


def test_marginal_gain_of_empty_set_is_singleton_value():
    rng = np.random.default_rng(3)
    for kind in ("fl", "flqmi", "flcg"):
        inst = random_instance(rng, kind, n=6)
        for x in range(6):
            assert inst.marginal_gain([], x) == pytest.approx(inst.value([x]), abs=1e-12)


def test_marginal_gain_of_duplicate_is_zero():
    S = random_self_kernel(np.random.default_rng(4), 5)
    S[:, 3] = S[:, 1]  # column 3 duplicates column 1
    f = FacilityLocation(S)
    assert f.marginal_gain([1], 3) == pytest.approx(0.0, abs=1e-12)


def test_marginal_gain_matches_two_evaluations():
    rng = np.random.default_rng(5)
    f = FacilityLocation(random_self_kernel(rng, 6))
    for _ in range(30):
        A = list(rng.choice(6, size=rng.integers(0, 5), replace=False))
        x = int(rng.choice([i for i in range(6) if i not in A]))
        assert f.marginal_gain(A, x) == pytest.approx(
            f.value(A + [x]) - f.value(A), abs=1e-9
        )


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
def test_incremental_evaluator_matches_marginal_gain(kind):
    rng = np.random.default_rng(6)
    for _ in range(10):
        inst = random_instance(rng, kind, n=7)
        ev = inst.evaluator()
        picked = []
        for _ in range(4):
            cand = np.array([i for i in range(7) if i not in picked])
            gains = ev.gains(cand)
            for c, g in zip(cand, gains):
                assert g == pytest.approx(inst.marginal_gain(picked, int(c)), abs=1e-9)
            x = int(cand[rng.integers(len(cand))])
            ev.add(x)
            picked.append(x)


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
@pytest.mark.parametrize("bad", [[7], [-1], [0, 3, 7], [-1, 2]])
def test_evaluator_gains_reject_out_of_range_candidates(kind, bad):
    rng = np.random.default_rng(8)
    ev = random_instance(rng, kind, n=7).evaluator()
    with pytest.raises(GroundIndexError):
        ev.gains(np.array(bad))


def test_marginal_gain_rejects_member():
    f = FacilityLocation(np.ones((3, 3)))
    with pytest.raises(ValueError):
        f.marginal_gain([0, 1], 1)


def test_out_of_range_index_rejected():
    f = FacilityLocation(np.ones((3, 3)))
    with pytest.raises(GroundIndexError):
        f.value([3])
    with pytest.raises(GroundIndexError):
        f.value([-1])
    with pytest.raises(GroundIndexError):
        FLQMI(np.ones((2, 2))).value([5])


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
def test_monotone(kind):
    rng = np.random.default_rng(7)
    for _ in range(15):
        inst = random_instance(rng, kind, n=6)
        A = list(rng.choice(6, size=rng.integers(0, 6), replace=False))
        for x in range(6):
            if x in A:
                continue
            assert inst.value(A + [x]) >= inst.value(A) - 1e-9


@pytest.mark.parametrize("kind", ["fl", "flqmi", "flcg"])
def test_submodular_diminishing_returns(kind):
    rng = np.random.default_rng(8)
    for _ in range(15):
        inst = random_instance(rng, kind, n=7)
        B = list(rng.choice(7, size=rng.integers(1, 6), replace=False))
        keep = rng.random(len(B)) < 0.5
        A = [b for b, k in zip(B, keep) if k]
        for x in range(7):
            if x in B:
                continue
            assert inst.marginal_gain(A, x) >= inst.marginal_gain(B, x) - 1e-9


def test_smi_scg_trivial_identities():
    rng = np.random.default_rng(9)
    F = FacilityLocation(random_self_kernel(rng, 5))
    A = [0, 2, 4]
    assert smi_value(F, A, []) == pytest.approx(0.0, abs=1e-12)
    assert scg_value(F, A, []) == pytest.approx(F.value(A), abs=1e-12)
    assert smi_value(F, A, A) == pytest.approx(F.value(A), abs=1e-9)


def test_smi_scg_match_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(40):
        S = random_self_kernel(rng, 5)
        F = FacilityLocation(S)
        A = list(rng.choice(5, size=rng.integers(0, 4), replace=False))
        B = list(rng.choice(5, size=rng.integers(0, 4), replace=False))
        union = sorted(set(A) | set(B))
        smi_expected = brute_fl(S, A) + brute_fl(S, B) - brute_fl(S, union)
        scg_expected = brute_fl(S, union) - brute_fl(S, B)
        assert smi_value(F, A, B) == pytest.approx(smi_expected, abs=1e-9)
        assert scg_value(F, A, B) == pytest.approx(scg_expected, abs=1e-9)


def test_flcg_is_fl_conditional_gain_on_joined_kernel():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, p = 6, 3
        S_uu = random_self_kernel(rng, n)
        S_up = random_cosine_kernel(rng, n, p)
        joined = np.hstack([S_uu, S_up])  # ground = n buffer cols then p private cols
        fl = FacilityLocation(joined)
        cg = FLCG(S_uu, S_up)
        P = list(range(n, n + p))
        A = list(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
        expected = fl.value(sorted(A) + P) - fl.value(P)
        assert cg.value(A) == pytest.approx(expected, abs=1e-9)


def test_flqmi_normalizer_is_axis_length_sum():
    assert flqmi_normalizer(7, 3) == 10
    S = np.ones((4, 2))
    f = FLQMI(S)
    assert flqmi_normalizer(*f.S.shape) == 6


def test_fl_optimal_subset_sanity():
    # brute force over all subsets agrees with definitional value ordering
    rng = np.random.default_rng(12)
    S = random_self_kernel(rng, 6)
    f = FacilityLocation(S)
    for size in (1, 2):
        best = max(itertools.combinations(range(6), size), key=lambda A: brute_fl(S, list(A)))
        assert f.value(list(best)) == pytest.approx(brute_fl(S, list(best)), abs=1e-9)
