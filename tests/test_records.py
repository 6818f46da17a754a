"""Records behave as frozen dataclasses.  The stdlib is the oracle: each
record class gets a twin from `dataclasses.make_dataclass(frozen=True)`
built from the record's `fields`, and on instances from real parses and
estimates the record and its twin agree on `==`, `hash` and `repr`."""

import dataclasses
import itertools
import pickle

import pytest

from presslab.balls import BallSpec
from presslab.dimension import bowen_root
from presslab.localent import dirac_measure, lebesgue_measure, \
    local_amalgamated_entropy, marginal_bound_check, parse_measure
from presslab.potentials import MultiPotential, parse_potential, \
    random_potential
from presslab.pressure import extrapolate, min_cover_cost, \
    sweep_estimates, verify_inequality_chain
from presslab.records import fields, replace
from presslab.systems import IntervalGenerator, parse_system
from presslab.words import Word, periodic_rule, pool_words

DIAG = parse_system("diag:2,3|3,2")
UNIFORM = parse_system("diag:2,2|2,2")
CANTOR = parse_system("cantor:3,3")
SHIFT = parse_system("shift:2")
PHI = parse_potential("constants:0.1,0.2", 2)


def _instances():
    leb = lebesgue_measure(DIAG, resolution=16)
    product = parse_measure("bernoulli:0.5,0.5 x lebesgue", UNIFORM,
                            resolution=64)
    marginal = marginal_bound_check(product, UNIFORM, [(0.3, 0.4)], 0.125,
                                    (2, 4), seed=0)
    chain = verify_inequality_chain(DIAG, PHI, 2, 0.125,
                                    rule=periodic_rule((1, 2)))
    sweep = sweep_estimates(DIAG, PHI, "amalgamated", (2, 3, 4), (0.125,))
    words = pool_words(2, 0, 2)
    return [
        DIAG, UNIFORM, CANTOR, SHIFT, parse_system("cantor:3,3|3,3"),
        *DIAG.generators, *CANTOR.generators, *SHIFT.generators,
        PHI, random_potential(2, seed=1), parse_potential("zero", 2),
        *words, Word((1,)), periodic_rule((1, 2)), periodic_rule((2,)),
        BallSpec("trajectory", (0.3, 0.4), 2, 0.125, words[0]),
        BallSpec("exhaustive", (0.3, 0.4), 2, 0.125),
        leb, dirac_measure((0.3, 0.4)), product,
        local_amalgamated_entropy(leb, DIAG, (0.37, 0.61), 0.125, (2, 4)),
        marginal, *marginal.checks,
        chain, *chain.checks, *chain.estimates.values(), *sweep,
        extrapolate(sweep),
        min_cover_cost(DIAG, PHI, "amalgamated", 2, 0.125),
        bowen_root(CANTOR, 8, 0.125),
    ]


def _twin(cls):
    specs = [(f.name, object, dataclasses.field(
        default=vars(cls).get(f.name, dataclasses.MISSING),
        compare=f.compare)) for f in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _as_twin(obj, twins):
    cls = type(obj)
    if cls not in twins:
        twins[cls] = _twin(cls)
    return twins[cls](**{f.name: getattr(obj, f.name) for f in fields(cls)})


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a Report holds a dict
        return str(exc)


def test_every_record_class_is_covered():
    classes = {type(obj) for obj in _instances()}
    assert len(classes) == 19
    for cls in classes:
        assert [f.name for f in fields(cls)] == list(cls.__annotations__)


def test_records_agree_with_their_stdlib_twins():
    objs = _instances()
    twins = {}
    for obj in objs:
        twin = _as_twin(obj, twins)
        assert repr(obj) == repr(twin)
        if type(obj) is not IntervalGenerator:
            assert _hash(obj) == _hash(twin)
    for a, b in itertools.product(objs, repeat=2):
        same = _as_twin(a, twins) == _as_twin(b, twins) \
            if type(a) is type(b) else False
        assert (a == b) is same and (a != b) is not same, (a, b)
    # equal field values in records of two classes do not make them equal
    assert Word((1, 2)) != MultiPotential((1, 2))


def test_construction_matches_the_stdlib():
    twins = {}
    for cls, args, kwargs in (
            (Word, ((1, 2),), {}),
            (Word, (), {"symbols": (2,)}),
            (BallSpec, ("exhaustive", (0.1, 0.2), 3), {"epsilon": 0.25}),
            (type(DIAG), ("torus-2d", DIAG.generators), {})):
        obj = cls(*args, **kwargs)
        twin = _twin(cls)(*args, **kwargs)
        assert repr(obj) == repr(twin) and hash(obj) == hash(twin)
        twins[cls] = twin
    for cls, args, kwargs in (
            (Word, (), {}),
            (Word, ((1,), (2,)), {}),
            (Word, ((1,),), {"symbols": (1,)}),
            (Word, (), {"letters": (1,)}),
            (BallSpec, ("exhaustive", (0.1, 0.2)), {"depth": 2})):
        with pytest.raises(TypeError):
            _twin(cls)(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_records_are_frozen():
    word = Word((1, 2))
    est = sweep_estimates(DIAG, PHI, "amalgamated", (2,), (0.125,))[0]
    for obj, name in ((word, "symbols"), (est, "lower"), (DIAG, "wrap"),
                      (est, "unknown")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert word.symbols == (1, 2) and not hasattr(est, "unknown")
    # cached_property writes the instance dict, which stays open
    assert DIAG.wrap is DIAG.wrap


def test_replace_runs_init_again():
    with pytest.raises(ValueError):
        replace(Word((1,)), symbols=())
    with pytest.raises(TypeError):
        replace(Word((1,)), letters=(2,))
    est = sweep_estimates(DIAG, PHI, "amalgamated", (2,), (0.125,))[0]
    wide = replace(est, upper=est.upper + 1.0)
    assert (wide.lower, wide.upper, wide.note) == \
        (est.lower, est.upper + 1.0, est.note)


def test_interval_generator_keeps_its_own_hash():
    assert "__hash__" in vars(IntervalGenerator)
    gen = CANTOR.generators[0]
    assert hash(gen) == hash(gen.slopes) != hash((gen.slopes,))


def test_the_name_is_outside_equality_and_hashing():
    renamed = replace(CANTOR, name="middle thirds")
    assert renamed.name != CANTOR.name
    assert renamed == CANTOR and hash(renamed) == hash(CANTOR)
    assert "name='middle thirds'" in repr(renamed)


def test_a_multi_potential_survives_a_pickle_round_trip():
    for phi in (PHI, random_potential(3, seed=7)):
        back = pickle.loads(pickle.dumps(phi))
        assert back == phi and hash(back) == hash(phi)
        assert repr(back) == repr(phi)
        assert back.eval(1, (0.3, 0.4)) == phi.eval(1, (0.3, 0.4))
