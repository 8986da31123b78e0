"""Binary-expansion separating systems."""
import math

import pytest

from canm.errors import UsageError
from canm.setsys import SeparatingSetSystem, strongly_separating


def test_rejects_zero():
    with pytest.raises(UsageError):
        strongly_separating(0)


def test_n1_vacuous():
    assert strongly_separating(1).sets == ()


def test_n2_exact():
    assert [sorted(s) for s in strongly_separating(2)] == [[1], [0]]


def test_n4_exact():
    got = [sorted(s) for s in strongly_separating(4)]
    assert got == [[1, 3], [0, 2], [2, 3], [0, 1]]


def test_pairwise_separation_exhaustive_small():
    for n in range(2, 40):
        system = strongly_separating(n)
        sets = list(system)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert any(i in s and j not in s for s in sets), (n, i, j)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 64, 100, 511, 512, 513, 1024])
def test_size_bound_and_vectorized_check(n):
    system = strongly_separating(n)
    assert len(system) <= 2 * math.ceil(math.log2(n))
    assert system.is_strongly_separating()


def test_size_bound_enforced_by_type():
    with pytest.raises(UsageError):
        SeparatingSetSystem(2, tuple(frozenset({k % 2}) for k in range(5)))


def test_set_elements_must_be_integers():
    with pytest.raises(UsageError, match="integer"):
        SeparatingSetSystem(3, [[0.9]])
