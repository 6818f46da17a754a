"""Ball specs and strict membership, and the nesting of the three
ball families."""

import random

import pytest

from presslab.balls import BallSpec, ball_contains
from presslab.systems import parse_system
from presslab.words import Word


def test_spec_validation():
    with pytest.raises(ValueError):
        BallSpec("nosuch", 0.3, 1, 0.1, Word((1,)))
    with pytest.raises(ValueError):
        BallSpec("trajectory", 0.3, 0, 0.1, None)
    with pytest.raises(ValueError):
        BallSpec("trajectory", 0.3, 2, 0.1, Word((1,)))  # word too short
    with pytest.raises(ValueError):
        BallSpec("condensed", 0.3, 1, 0.1, Word((1,)))   # stray word
    with pytest.raises(ValueError):
        BallSpec("exhaustive", 0.3, 1, -0.1, None)


def test_membership_doubling():
    db = parse_system("cantor:2,2")
    spec = BallSpec("trajectory", 0.3, 1, 0.1, Word((1,)))
    # 0.34 stays within 0.1 at both times, 0.36 drifts to 0.12 after one step
    assert ball_contains(db, spec, 0.34)
    assert not ball_contains(db, spec, 0.36)
    assert ball_contains(db, spec, 0.3)


def test_trajectory_ball_nesting_in_depth():
    """A longer word constrains more times, so the ball only shrinks."""
    diag = parse_system("diag:2,3|3,2")
    rng = random.Random(5)
    shallow = BallSpec("trajectory", (0.5, 0.5), 1, 0.125, Word((1,)))
    deep = BallSpec("trajectory", (0.5, 0.5), 2, 0.125, Word((1, 2)))
    for _ in range(300):
        p = (rng.random(), rng.random())
        if ball_contains(diag, deep, p):
            assert ball_contains(diag, shallow, p)


def test_condensed_ball_inside_exhaustive_ball():
    diag = parse_system("diag:2,3|3,2")
    rng = random.Random(6)
    cond = BallSpec("condensed", (0.5, 0.5), 2, 0.125)
    exh = BallSpec("exhaustive", (0.5, 0.5), 2, 0.125)
    for _ in range(300):
        p = (rng.random(), rng.random())
        if ball_contains(diag, cond, p):
            assert ball_contains(diag, exh, p)


def test_trajectory_ball_between_condensed_and_exhaustive():
    diag = parse_system("diag:2,3|3,2")
    rng = random.Random(7)
    for _ in range(40):
        w = Word(tuple(rng.randint(1, 2) for _ in range(3)))
        c = (rng.random(), rng.random())
        traj = BallSpec("trajectory", c, 3, 0.125, w)
        cond = BallSpec("condensed", c, 3, 0.125)
        exh = BallSpec("exhaustive", c, 3, 0.125)
        for _ in range(40):
            p = (rng.random(), rng.random())
            if ball_contains(diag, cond, p):
                assert ball_contains(diag, traj, p)
            if ball_contains(diag, traj, p):
                assert ball_contains(diag, exh, p)

