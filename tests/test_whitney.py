"""Dyadic cube decompositions, domains, and the recursive selection map."""

import math
import random

import pytest

import modp


def test_layer_counts_match_closed_form():
    for m in (2, 3):
        for M in (1, 2):
            dec = modp.build_decomposition(m, M, 3)
            for k in range(dec.depth):
                assert dec.layer_count(k) == dec.layer_count_formula(k)
                assert dec.layer_count(k) == 2 ** (m * M) * 2 ** ((m - 1) * (k + 2))
                assert sum(1 for _ in dec.cubes(k)) == dec.layer_count(k)


def test_cubes_run_first_axis_fastest():
    # the row order of ``modp whitney --csv``
    dec = modp.build_decomposition(3, 1, 1)
    keys = [(Q.i, Q.j) for Q in dec.cubes(0)]
    assert keys[:5] == [(0, (0, 0)), (1, (0, 0)), (0, (1, 0)), (1, (1, 0)), (0, (2, 0))]
    assert keys[-1] == (1, (7, 7))


def test_frozen_counts_m2_M2():
    dec = modp.build_decomposition(2, 2, 3)
    assert dec.layer_count(0) == 64
    assert next(dec.cubes(0)).side == 0.25
    assert dec.layer_count(1) == 128


def test_dist_v_diam_exact_everywhere():
    for m, M in ((2, 1), (2, 2), (3, 1)):
        dec = modp.build_decomposition(m, M, 3)
        assert all(Q.dist_v_diam_exact() for Q in dec.all_cubes())


def test_cube_index_validation():
    dec = modp.build_decomposition(2, 1, 2)
    with pytest.raises(ValueError):
        dec.cube(5, 0, (0,))
    with pytest.raises(ValueError):
        dec.cube(0, 0, (999,))
    with pytest.raises(ValueError):
        modp.build_decomposition(1, 1, 2)


def test_is_below_follows_dyadic_ancestry():
    dec = modp.build_decomposition(2, 1, 3)
    child = dec.cube(2, 0, (5,))
    parent = dec.cube(1, 1, (2,))
    other = dec.cube(1, 0, (3,))
    assert modp.is_below(child, parent)
    assert not modp.is_below(child, other)
    assert modp.is_below(child, child)


def test_domain_with_small_oracle_is_everything():
    dec = modp.build_decomposition(2, 1, 3)
    W = modp.whitney_domain(lambda y, r: 0.0, 0.5, dec)
    assert len(W) == sum(1 for _ in dec.all_cubes())


def test_domain_with_huge_oracle_is_empty():
    dec = modp.build_decomposition(2, 1, 3)
    W = modp.whitney_domain(lambda y, r: 1e9, 1e-6, dec)
    assert len(W) == 0
    with pytest.raises(ValueError):
        modp.whitney_domain(lambda y, r: 0.0, 0.0, dec)


def test_blocked_column_excludes_everything_below():
    dec = modp.build_decomposition(2, 1, 3)
    q_hat = dec.cube(0, dec.rows() - 1, (0,))

    def oracle(y, r):
        return 1e9 if abs(y[0] - q_hat.y_center[0]) < q_hat.side / 2 else 0.0

    W = modp.whitney_domain(oracle, 0.5, dec)
    below = [Q for Q in dec.all_cubes() if modp.is_below(Q, q_hat)]
    assert below and all(not W.is_member(Q) for Q in below)


def test_domain_keeps_one_oracle_value_per_column():
    dec = modp.build_decomposition(3, 1, 3)
    calls = []

    def oracle(y, r):
        calls.append((y, r))
        return y[0] * y[0] + r

    W = modp.whitney_domain(oracle, 0.5, dec)
    columns = {(Q.k, Q.j): Q for Q in dec.all_cubes()}
    assert len(calls) == len(columns)
    assert W.column_excess == {col: oracle(Q.y_center, dec.mbar() * Q.d_Q)
                               for col, Q in columns.items()}


def test_domain_upward_closed_and_monotone_in_tau():
    dec = modp.build_decomposition(2, 1, 4)
    rng = random.Random(11)
    table = {}

    def oracle(y, r):
        return table.setdefault((tuple(y), r), rng.random())

    W_big = modp.whitney_domain(oracle, 0.7, dec)
    W_small = modp.whitney_domain(oracle, 0.3, dec)
    members_small = {(Q.k, Q.i, Q.j) for Q in W_small.members()}
    members_big = {(Q.k, Q.i, Q.j) for Q in W_big.members()}
    assert members_small <= members_big
    for Q in W_big.members():
        if Q.k > 0:
            parent = dec.cube(Q.k - 1, Q.i, tuple(v >> 1 for v in Q.j))
            assert W_big.is_member(parent)


def test_rho_conventions():
    dec = modp.build_decomposition(2, 1, 3)
    rho_empty, region_empty = modp.rho_and_region(
        modp.whitney_domain(lambda y, r: 1e9, 1e-6, dec))
    assert rho_empty([0.3]) == 2.0
    rho_full, region_full = modp.rho_and_region(
        modp.whitney_domain(lambda y, r: 0.0, 0.5, dec))
    # the union of member cubes reaches down to the bottom layer's inner face
    assert rho_full([0.3]) == 2.0 ** -(dec.depth - 1)
    assert region_full["contains"](1.0, [0.3])
    assert not region_empty["contains"](1.0, [0.3])
    assert not region_full["contains"](3.0, [0.3])
    # step heights are powers of two
    rng = random.Random(5)
    W = modp.whitney_domain(lambda y, r: rng.random(), 0.8, dec)
    rho, _ = modp.rho_and_region(W)
    for y in [(-1.7 + 0.13 * i,) for i in range(20)]:
        v = rho(list(y))
        assert math.log2(v) == int(math.log2(v))


def test_selection_with_kappa0_one_jumps_to_top():
    dec = modp.build_decomposition(2, 1, 3)
    q_hat = (0, dec.rows() - 1, (3,))
    hbar = {(Q.k, Q.i, Q.j): 1 for Q in dec.all_cubes()}
    phi, report = modp.global_selection(dec, hbar, q_hat, 1)
    for key in list(hbar)[::7]:
        assert phi(key, 0) == key
        assert phi(key, 1) == q_hat


def test_selection_with_constant_choice_stays_put():
    dec = modp.build_decomposition(2, 1, 3)
    q_hat = (0, dec.rows() - 1, (0,))
    kappa0 = 4
    hbar = {(Q.k, Q.i, Q.j): 2 for Q in dec.all_cubes()}
    phi, report = modp.global_selection(dec, hbar, q_hat, kappa0)
    key = (2, 0, (5,))
    for s in range(kappa0):
        assert phi(key, s) == key
    assert phi(key, kappa0) == q_hat


def test_q_hat_must_be_top_sublayer():
    dec = modp.build_decomposition(2, 1, 3)
    hbar = {(Q.k, Q.i, Q.j): 1 for Q in dec.all_cubes()}
    with pytest.raises(ValueError):
        modp.global_selection(dec, hbar, (1, 0, (0,)), 1)


def test_selection_tail_bound_small_grid():
    dec = modp.build_decomposition(2, 1, 4)
    rng = random.Random(2)
    hbar = {(Q.k, Q.i, Q.j): rng.randint(1, 3) for Q in dec.all_cubes()}
    _, report = modp.global_selection(dec, hbar, (0, dec.rows() - 1, (0,)), 3)
    assert report["below_tail_ok"]
    assert report["max_below_tail"] <= 2 ** dec.M / 7.0 + 1e-12
