import pytest

from oracle.permutation import identity, is_involution
from oracle.tableau import restrict_high as tab_restrict_high, rs_involution, rs_involution_inverse
from qtab.permutation import Permutation, involutions, permutations
from qtab.rsk import rs, rs_inverse
from qtab.stats import t_count
from qtab.tableau import Tableau


def test_identity_maps_to_single_rows():
    for n in range(5):
        p_tab, q_tab = rs(identity(n))
        assert p_tab == q_tab
        assert len(p_tab.rows) == (1 if n else 0)


def test_hand_insertion_312():
    p_tab, q_tab = rs(Permutation.parse("312"))
    assert p_tab == Tableau.from_rows([[1, 2], [3]])
    assert q_tab == Tableau.from_rows([[1, 3], [2]])
    assert rs_inverse(p_tab, q_tab) == Permutation.parse("312")


def test_decreasing_gives_column():
    tab = rs_involution(Permutation.parse("21"))
    assert tab == Tableau.from_rows([[1], [2]])


@pytest.mark.parametrize("n", range(0, 7))
def test_roundtrip_exhaustive(n):
    for perm in permutations(n):
        p_tab, q_tab = rs(perm)
        assert p_tab.shape == q_tab.shape
        assert rs_inverse(p_tab, q_tab) == perm


@pytest.mark.parametrize("n", range(0, 7))
def test_descent_transport(n):
    # recording tableau carries the permutation's descents,
    # insertion tableau those of the inverse
    for perm in permutations(n):
        p_tab, q_tab = rs(perm)
        assert q_tab.descents() == perm.descents()
        assert p_tab.descents() == perm.inverse().descents()


@pytest.mark.parametrize("n", range(0, 7))
def test_restriction_statistic_transport(n):
    for perm in permutations(n):
        p_tab, q_tab = rs(perm)
        for k in range(n + 1):
            assert tab_restrict_high(q_tab, k).maj() == perm.suffix(k).maj()
            assert tab_restrict_high(p_tab, k).maj() == perm.restrict_high(k).imaj()


@pytest.mark.parametrize("n", range(0, 7))
def test_involution_iff_equal_pair(n):
    for perm in permutations(n):
        p_tab, q_tab = rs(perm)
        assert (p_tab == q_tab) == is_involution(perm)


@pytest.mark.parametrize("n", range(0, 9))
def test_involution_images_are_distinct_and_counted(n):
    images = {rs_involution(perm) for perm in involutions(n)}
    assert len(images) == t_count(n)
    for tab in images:
        assert rs_involution(rs_involution_inverse(tab)) == tab


def test_rs_involution_rejects_non_involution():
    with pytest.raises(ValueError):
        rs_involution(Permutation.parse("312"))


def test_rs_inverse_rejects_shape_mismatch():
    p_tab = Tableau.from_rows([[1, 2], [3]])
    q_tab = Tableau.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError):
        rs_inverse(p_tab, q_tab)
