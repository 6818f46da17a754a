"""System parsing, the closed-form entropies, and the maps."""

import functools
import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from presslab import analytic, grid, localent
from presslab.errors import DepthTooLarge, ParseError
from presslab.grid import grid_metrics, grid_points, grid_shape
from presslab.systems import TORUS, IntervalGenerator, SemigroupSystem, \
    closed_form_entropies, parse_system
from presslab.words import Word, all_words, orbit

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
    "cantor:3",            # one branch cannot end at 1
    "cantor:2,1.5",        # widths 1/2 + 2/3 overlap
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_system(bad, line=7)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_system("diag:2", line=12)
    assert "12" in str(exc.value)


def test_a_system_is_its_dynamics_whatever_its_name():
    """The name is a label: systems with equal domain and generators are
    equal, hash alike and share the grid engine, the unit ball polygons
    and the interval core."""
    spec = "toral:0,1,1,2;2,1,1,0"
    named = SemigroupSystem(TORUS, parse_system(spec).generators,
                            name="shear pair")
    assert named == parse_system(spec) and named.name == "shear pair"
    assert hash(named) == hash(parse_system(spec))
    assert parse_system("diag:2,3|3,2") == parse_system("toral:2,3;3,2")
    grid._grid_engine.cache_clear()
    assert grid._grid_engine(named, 2, 0.25) \
        is grid._grid_engine(parse_system(spec), 2, 0.25)
    assert grid._grid_engine.cache_info().misses == 1
    analytic._unit_ball.cache_clear()
    for system in (named, parse_system(spec)):
        analytic._unit_ball(system, Word((1, 2, 1)))
    assert analytic._unit_ball.cache_info().misses == 1
    analytic._single_core_numbers.cache_clear()
    ternary = parse_system("cantor:3,3")
    for name in ("cantor:3,3", "ternary"):
        analytic._single_core_numbers(
            SemigroupSystem(ternary.domain, ternary.generators, name=name),
            0.125)
    assert analytic._single_core_numbers.cache_info().misses == 1


def _count_calls(monkeypatch, cls, name):
    """Replace the cached property cls.name by one that counts the calls
    of its function."""
    calls = []
    func = cls.__dict__[name].func

    def counted(self):
        calls.append(self)
        return func(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_generator_and_system_invariants_are_computed_once(monkeypatch):
    # every apply reads the float branches and the gap test, every cache
    # keyed on a system hashes its generators, and the closed forms read
    # wrap and the circle slopes per ball; each is computed once per object
    names = ("gap", "has_gaps", "branches", "float_branches", "_hash")
    calls = {name: _count_calls(monkeypatch, IntervalGenerator, name)
             for name in names}
    calls["wrap"] = _count_calls(monkeypatch, SemigroupSystem, "wrap")
    for spec in ("cantor:3,3|3,3", "cantor:2,2|3,3,3"):
        system = parse_system(spec)
        for x in [i / 97 for i in range(98)]:
            for j in (1, 2):
                system.apply(j, x)
        for _ in range(50):
            hash(system)
            assert system.wrap == (spec == "cantor:2,2|3,3,3")
            assert system.generators[0].float_branches[0][2] \
                == float(spec[7])
    # once per generator and once per system, however many reads
    assert [len(c) for c in calls.values()] == [4] * len(names) + [2]
    assert all(len({id(obj) for obj in c}) == len(c) for c in calls.values())
    circle = parse_system("cantor:2,2|3,3,3")
    analytic._uniform_circle_slopes.cache_clear()
    for _ in range(50):
        assert analytic._uniform_circle_slopes(circle) \
            == (Fraction(2), Fraction(3))
    assert analytic._uniform_circle_slopes.cache_info().misses == 1


def test_a_system_hashes_each_slope_once(monkeypatch):
    # Fraction.__hash__ is Python code, and every lru_cache keyed on a
    # system hashes it, once per ball on some paths
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    system = parse_system("cantor:3,3|5,5")
    for _ in range(1000):
        hash(system)
    assert len(calls) <= 4


def test_cantor_slopes_are_exact():
    # 2.5 is 5/2, so the branch ends and the gap are exact rationals
    gen = parse_system("cantor:2.5,2.5").generators[0]
    assert gen.slopes == (Fraction(5, 2), Fraction(5, 2))
    assert gen.branches == ((0, Fraction(5, 2)),
                            (Fraction(3, 5), Fraction(5, 2)))
    assert gen.gap == Fraction(1, 5)
    # a float end is rounded once from the exact end, not accumulated
    ternary = parse_system("cantor:3,3").generators[0]
    assert ternary.branches[1][0] == Fraction(2, 3)
    assert ternary.float_branches[1][0] == 0.6666666666666666
    assert ternary.float_branches[0][1] == 1 / 3
    assert ternary.float_branches[1][1] == 1.0
    # a gap far below any float slack is still a gap
    near = parse_system("cantor:2,2.000000001")
    assert not near.wrap
    assert near.min_gap == near.generators[0].gap \
        == Fraction(1, 4000000002)


def test_interval_code_holds_no_tolerance():
    sources = [inspect.getsource(obj) for obj in (
        IntervalGenerator, analytic._core_levels,
        analytic._intersect_interval_lists, analytic.interval_cover_number,
        analytic.interval_packing_number, analytic.interval_packing,
        analytic.wrap_guard_ok, analytic._packing_guard,
        localent._uniform_exact_mass)]
    for source in sources:
        for banned in ("1e-15", "1e-12", "1e-9", "limit_denominator"):
            assert banned not in source
    assert not hasattr(IntervalGenerator, "from_slopes")


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
                assert grid_shape(system, epsilon, n) == (
                    system.generators[0].alphabet, rank), (spec, n)
            else:
                with pytest.raises(DepthTooLarge, match="needs %d " % rank):
                    grid_shape(system, epsilon, n)


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
    # the digit-difference table, read at the index of p - q, gives the
    # dense P x P orbit metric exactly, in units of 2**-rank, on 4- to
    # 10-symbol grids; every grid point is 0 from itself
    system = parse_system(spec)
    base, rank = shape = grid_shape(system, epsilon, n)
    points = grid_points(system, *shape)
    words = list(all_words(system.m, n))
    region, tables = grid_metrics(system, points, words, *shape)
    assert region == points
    digits = np.array(points)
    diff = np.zeros((len(points), len(points)), dtype=int)
    for c in range(rank):
        diff = diff * base + np.subtract.outer(digits[:, c], digits[:, c]) \
            % base
    for word, table in zip(words, tables):
        want = np.zeros((len(points), len(points)))
        for step in zip(*(orbit(system, x, word) for x in points)):
            np.maximum(want, _reference_shift_pair_distances(step), out=want)
        np.fill_diagonal(want, 0.0)
        assert table.typecode == "H" and len(table) == len(points)
        # every distance is dyadic, so the float scaling is exact
        assert np.array_equal(np.array(table)[diff], np.ldexp(want, rank)), \
            word


@pytest.mark.parametrize("spec, count", [("cantor:3,3,3|2,2", 3),
                                         ("shift:3", 9)])
def test_max_preimage_count_off_the_torus(spec, count):
    # the most branches of one interval generator; alphabet ** step for
    # the shift powers sigma, sigma^2 on three symbols
    assert parse_system(spec).max_preimage_count == count
