"""System parsing, the zoo, the closed-form entropies, and the maps."""

import itertools
import math
import random

import numpy as np
import pytest

from presslab.errors import DepthTooLarge, ParseError
from presslab.systems import closed_form_entropies, parse_system, zoo_systems
from presslab.words import all_words, orbit

LOG = math.log


def test_parse_diag_pair():
    s = parse_system("diag:2,3|3,2")
    assert s.m == 2
    assert s.is_toral and s.all_diagonal
    assert s.generators[0].diagonal_entries == (2, 3)
    assert s.generators[1].diagonal_entries == (3, 2)


def test_parse_toral_full_matrices():
    s = parse_system("toral:0,1,1,2;2,1,1,0")
    assert s.m == 2
    assert not s.all_diagonal
    assert s.generators[0].matrix == ((0, 1), (1, 2))
    assert s.generators[1].matrix == ((2, 1), (1, 0))


def test_parse_toral_diagonal_shorthand():
    # a 2-entry token expands to the diagonal matrix
    s = parse_system("toral:2,3")
    assert s.generators[0].matrix == ((2, 0), (0, 3))


def test_parse_cantor_single_and_pair():
    one = parse_system("cantor:2,2")
    assert one.m == 1
    assert one.is_interval
    pair = parse_system("cantor:3,3|5,5")
    assert pair.m == 2


def test_parse_shift():
    s = parse_system("shift:2")
    assert s.is_shift
    assert s.m == 2


@pytest.mark.parametrize("bad", [
    "diag:2,3;3,2",        # wrong separator for the family
    "toral:4,5|2,6",
    "toral:1,2,3",
    "diag:2",
    "shift:2,3",
    "nosuch:1",
    "plainstring",
    "cantor:a,b",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_system(bad, line=7)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_system("diag:2", line=12)
    assert "12" in str(exc.value)


def test_zoo_contents():
    names = [s.name for s in zoo_systems()]
    assert names == [
        "diag:2,3|3,2",
        "toral:0,1,1,2;2,1,1,0",
        "diag:4,5|2,6",
        "diag:2,10|3,4",
        "toral:2,1,1,1;5,3,3,2",
        "cantor:3,3|5,5",
        "cantor:2,2|2,2",
        "shift:2",
    ]
    for s in zoo_systems():
        assert parse_system(s.name).m == s.m


def test_closed_form_reference_pair():
    h_plus, h_a, h_cond = closed_form_entropies(2, 3, 3, 2)
    assert h_plus == pytest.approx(LOG(4), abs=1e-12)
    assert h_a == pytest.approx(LOG(6), abs=1e-12)
    assert h_cond == pytest.approx(LOG(9), abs=1e-12)


def test_closed_form_identical_generators_collapse():
    triple = closed_form_entropies(4, 5, 4, 5)
    for v in triple:
        assert v == pytest.approx(LOG(20), abs=1e-12)


def test_closed_form_ordering_random():
    import random
    rng = random.Random(20)
    for _ in range(50):
        a, b, c, d = (rng.randint(2, 6) for _ in range(4))
        h_plus, h_a, h_cond = closed_form_entropies(a, b, c, d)
        assert h_plus <= h_a + 1e-12
        assert h_a <= h_cond + 1e-12


def test_closed_form_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        closed_form_entropies(2.5, 3, 3, 2)
    with pytest.raises(ValueError):
        closed_form_entropies(1, 3, 3, 2)


def test_apply_wraps_to_unit_square():
    s = parse_system("diag:2,3|3,2")
    x, y = s.apply(1, (0.4, 0.9))
    assert x == pytest.approx(0.8, abs=1e-12)
    assert y == pytest.approx(0.7, abs=1e-12)
    assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0


@pytest.mark.parametrize("epsilon", [2.0 ** -j for j in range(8)] + [
    0.1, 0.3, 1 / 3, 0.7, 0.01, 0.99 * 2.0 ** -5, 1.01 * 2.0 ** -5, 1.5])
def test_shift_grid_rank_is_the_ball_cylinder_length(epsilon):
    # a strict eps-ball is the cylinder of the first k symbols, k the least
    # integer with 2**-k < eps; along a depth-n word of largest step 2 the
    # grid needs n*2 + k symbols, and past 10 it refuses
    k = next(j for j in itertools.count() if 2.0 ** -j < epsilon)
    for spec in ("shift:2", "shift:3"):
        system = parse_system(spec)
        for n in (1, 2, 3):
            rank = 2 * n + k
            if rank <= 10:
                assert system.grid_shape(epsilon, n) == (
                    system.generators[0].alphabet, rank), (spec, n)
            else:
                with pytest.raises(DepthTooLarge, match="needs %d " % rank):
                    system.grid_shape(epsilon, n)


def _reference_shift_pair_distances(a):
    """The dense shift metric of every pair of a (P, L) symbol array, as
    the grid engine computed it before the difference stencil: 2**-k at
    the first differing symbol k, and 2**-L, the diameter of a length-L
    cylinder, where all L symbols agree."""
    a = np.asarray(a)
    out = np.full((len(a), len(a)), 2.0 ** -a.shape[1])
    for k in range(a.shape[1] - 1, -1, -1):
        np.putmask(out, a[:, None, k] != a[None, :, k], 2.0 ** -k)
    return out


@pytest.mark.parametrize("spec, n, epsilon", [
    ("shift:2", n, epsilon) for n in (1, 2, 3) for epsilon in (0.5, 0.25)]
    + [("shift:2", 1, 2.0 ** -7), ("shift:2", 2, 2.0 ** -5),
       ("shift:2", 3, 2.0 ** -3)] + [
    ("shift:3", 1, 0.5), ("shift:3", 1, 0.125), ("shift:3", 2, 0.5)])
def test_shift_stencil_matches_the_dense_orbit_metric(spec, n, epsilon):
    # the digit-difference stencil gives the dense P x P orbit metric bit
    # for bit, on 4- to 10-symbol grids; every grid point is 0 from itself
    system = parse_system(spec)
    shape = system.grid_shape(epsilon, n)
    points = system.grid_points(*shape)
    words = list(all_words(system.m, n))
    region, dist = system.grid_metrics(points, words, *shape)
    assert region == points
    for word, d in zip(words, dist):
        want = np.zeros((len(points), len(points)))
        for step in zip(*(orbit(system, x, word) for x in points)):
            np.maximum(want, _reference_shift_pair_distances(step), out=want)
        np.fill_diagonal(want, 0.0)
        assert d.dtype == np.float32
        assert np.array_equal(d, want.astype(np.float32)), word
