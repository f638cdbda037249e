import itertools
import random

import pytest

from satscheme.counting import (
    HISTOGRAM_N_LIMIT,
    count_by_cliques,
    count_solutions,
    count_via_primes,
    solution_lower_bound,
)
from satscheme.dyadic import Dyadic
from satscheme.oracle import oracle_scan
from satscheme.scheme_core import Scheme, orthogonal

from conftest import random_clause_set, random_scheme, wide_clause_set, with_empty_columns


def test_count_f5_partials(f5):
    res = count_solutions(f5)
    assert res.total == 0
    assert res.partials == {0: 16, 1: -24, 2: 9, 3: -1}
    assert count_by_cliques(f5).cluster_count == 10


def test_count_f4_and_g(f4, g):
    assert count_solutions(f4).total == 2
    assert count_solutions(g).total == 14


def test_count_empty_scheme():
    res = count_solutions(Scheme.empty(5))
    assert res.total == 32 and res.partials == {0: 32} and res.cluster_count == 0


def test_count_n_limit():
    with pytest.raises(ValueError):
        count_solutions(Scheme.empty(64))
    assert count_solutions(Scheme.empty(64), n_limit=64).total == 1 << 64


def test_count_total_is_sum_of_partials():
    rng = random.Random(43)
    for _ in range(50):
        s = random_scheme(rng, n_max=8, m_max=10, empty_row_prob=0.05)
        res = count_solutions(s)
        assert res.total == sum(res.partials.values())
        assert 0 <= res.total <= 1 << s.n


def test_histogram_partials_match_clique_enumeration():
    rng = random.Random(67)
    for i in range(400):
        s = random_scheme(rng, n_max=10, m_max=14, k_max=4, empty_row_prob=0.05)
        if i % 20 == 0:
            s = Scheme.empty(s.n)
        elif i % 20 == 1:
            s = Scheme.from_rows([[]] * rng.randint(0, 3), n=0)
        hist = count_solutions(s)
        dfs = count_by_cliques(s)
        assert list(hist.partials.items()) == list(dfs.partials.items())
        assert hist.total == dfs.total
        assert hist.cluster_count == 0


def test_count_above_histogram_limit_enumerates_cliques():
    # sparse formulas: a chain of 2-clauses x_j -> x_{j+1} plus one unit; at
    # n=24 the partials come from a scan of many chunks, at n=25 from cliques
    for n in (HISTOGRAM_N_LIMIT, HISTOGRAM_N_LIMIT + 1):
        rows = []
        for j in range(0, n - 1, 3):
            row = [0] * n
            row[j], row[j + 1] = -1, 1
            rows.append(row)
        unit = [0] * n
        unit[0] = 1
        rows.append(unit)
        s = Scheme.from_rows(rows)
        res = count_solutions(s)
        assert (res.cluster_count > 0) == (n > HISTOGRAM_N_LIMIT)
        assert res.partials == count_by_cliques(s).partials
        # the unit forces x1, which forces x2; each other 2-clause keeps 3 of 4
        assert res.total == 3 ** (len(rows) - 2) * 2 ** (n - 2 * (len(rows) - 1))


def _powerset_count(s):
    """Brute-force cluster sum over the whole power set.

    Clusters holding an orthogonal pair are included with value 0, checking
    that skipping them entirely loses nothing.
    """
    total = 1 << s.n
    for size in range(1, s.m + 1):
        for subset in itertools.combinations(range(s.m), size):
            if any(
                orthogonal(s, i, j) for i, j in itertools.combinations(subset, 2)
            ):
                continue  # contributes exactly 0
            vars_used = set()
            for i in subset:
                vars_used.update(s.row_support(i))
            term = 1 << (s.n - len(vars_used))
            total += term if size % 2 == 0 else -term
    return total


def test_cluster_sum_matches_full_power_set():
    rng = random.Random(47)
    for _ in range(40):
        s = random_scheme(rng, n_max=6, m_max=9, empty_row_prob=0.05)
        assert count_solutions(s).total == _powerset_count(s)


def test_count_via_primes_fixtures(f4, f5):
    assert count_via_primes(f5) == 0
    assert count_via_primes(f4) == 2
    assert count_via_primes(Scheme.empty(6)) == 64


def test_count_via_primes_limit():
    with pytest.raises(ValueError):
        count_via_primes(Scheme.empty(21))


def test_count_via_primes_matches_full_blow_up():
    from satscheme.transforms import full_blow_up

    rng = random.Random(53)
    for _ in range(30):
        s = random_scheme(rng, n_max=6, m_max=6)
        primes = full_blow_up(s)
        distinct = {primes.row(i) for i in range(primes.m)}
        assert count_via_primes(s) == (1 << s.n) - len(distinct)


def test_three_counters_agree_with_oracle():
    rng = random.Random(59)
    for _ in range(200):
        s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.05)
        want = oracle_scan(s).count
        assert count_solutions(s).total == want
        assert count_via_primes(s) == want


def test_lower_bound_f5(f5):
    assert solution_lower_bound(f5) == Dyadic(-8)


def test_lower_bound_seven_triples():
    rows = []
    for signs in itertools.product((1, -1), repeat=3):
        rows.append(list(signs))
    s = Scheme.from_rows(rows[:7], n=3)
    bound = solution_lower_bound(s)
    assert bound == Dyadic(1)
    assert oracle_scan(s).count >= 1  # a positive bound certifies a model


def test_lower_bound_empty_scheme_and_empty_clause():
    assert solution_lower_bound(Scheme.empty(4)) == Dyadic(16)
    assert solution_lower_bound(Scheme.from_rows([[0, 0]])) == float("-inf")


def test_lower_bound_below_total_and_truncation():
    rng = random.Random(61)
    for _ in range(100):
        s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.05)
        res = count_solutions(s)
        bound = solution_lower_bound(s)
        if bound == float("-inf"):
            continue
        scaled_total = Dyadic(res.total)
        assert not (scaled_total < bound)
        # the bound is exactly the expansion truncated after singleton clusters
        truncated = res.partials.get(0, 0) + res.partials.get(1, 0)
        assert bound == Dyadic(truncated)


def _clusters_reference(s):
    """Partials and cluster count over every pairwise non-orthogonal row subset."""
    clash = {(i, j) for i, j in itertools.combinations(range(s.m), 2) if orthogonal(s, i, j)}
    partials = {0: 1 << s.n}
    clusters = 0
    for size in range(1, s.m + 1):
        for rows in itertools.combinations(range(s.m), size):
            if not clash.isdisjoint(itertools.combinations(rows, 2)):
                continue
            clusters += 1
            k = len({j for i in rows for j in s.row_support(i)})
            partials[size] = partials.get(size, 0) + (-1) ** size * (1 << (s.n - k))
    return partials, clusters


@pytest.mark.parametrize("pad", [None, 20])
def test_count_by_cliques_matches_subset_enumeration(pad):
    rng = random.Random(431)
    for i in range(360):
        s = random_clause_set(rng, m_max=10) if i < 300 else wide_clause_set(rng, m_max=10)
        s = with_empty_columns(s, pad)
        res = count_by_cliques(s)
        partials, clusters = _clusters_reference(s)
        assert (res.partials, res.cluster_count) == (partials, clusters)
        assert res.total == sum(partials.values())
