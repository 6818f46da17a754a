"""Multi-potentials: one continuous observable per generator.

Components are described by data, not closures, so potentials pickle
cleanly and can be compared and hashed by value.
Every component is scale * base(point) + offset with base one of
  zero      constant zero
  coord     first coordinate of the point (a proxy coordinate on shifts)
  fourier   low-frequency trigonometric polynomial, coefficients frozen
  expansion -log branch slope, params the exact slopes (closed forms
            only, no pointwise value)
Constant-class potentials (all bases zero) are what the closed-form
estimator paths accept; everything else goes through the grid engine.
"""

from __future__ import annotations

import math
import random

from .errors import ParseError
from .records import record
from .words import add_floats


def _unit_coords(point):
    if isinstance(point, tuple):
        if point and isinstance(point[0], int):
            # shift point: fold leading symbols into a dyadic proxy
            x = 0.0
            for i, s in enumerate(point[:12]):
                x += s * 2.0 ** (-(i + 1))
            return (x % 1.0, 0.0)
        return (point[0], point[1])
    return (float(point), 0.0)


def _eval_base(kind, params, point):
    if kind == "zero":
        return 0.0
    if kind == "expansion":
        raise ValueError("expansion components are closed-form only")
    x, y = _unit_coords(point)
    if kind == "coord":
        return x
    if kind == "fourier":
        total = 0.0
        for p, q, a, b in params:
            ang = 2.0 * math.pi * (p * x + q * y)
            total += a * math.cos(ang) + b * math.sin(ang)
        return total
    raise ValueError("unknown potential base %r" % kind)


def _base_bound(kind, params):
    """sup |base| over the domain: coordinates (and the shift's dyadic
    proxy) lie in [0, 1]."""
    if kind == "zero":
        return 0.0
    if kind == "coord":
        return 1.0
    if kind == "fourier":
        return add_floats(abs(a) + abs(b) for _, _, a, b in params)
    if kind == "expansion":
        return max(abs(math.log(s)) for s in params)
    raise ValueError("unknown potential base %r" % kind)


@record
class MultiPotential:
    components: tuple  # of (kind, params, scale, offset)

    @property
    def m(self):
        return len(self.components)

    def eval(self, j, point):
        if not 1 <= j <= len(self.components):
            raise ValueError("component index %r outside 1..%d"
                             % (j, len(self.components)))
        kind, params, scale, offset = self.components[j - 1]
        if scale == 0.0:
            return offset
        return scale * _eval_base(kind, params, point) + offset

    @property
    def is_constant_class(self):
        return all(kind == "zero" or scale == 0.0
                   for kind, _, scale, _ in self.components)

    @property
    def constant_values(self):
        if not self.is_constant_class:
            return None
        return tuple(offset for _, _, _, offset in self.components)

    def scale(self, t):
        return MultiPotential(tuple(
            (kind, params, scale * t, offset * t)
            for kind, params, scale, offset in self.components))

    def shifted(self, c):
        """Add the same constant to every component."""
        return MultiPotential(tuple(
            (kind, params, scale, offset + c)
            for kind, params, scale, offset in self.components))

    def sup_bound(self):
        """max_j sup |phi_j|, from each component's base bound."""
        return max(abs(scale) * _base_bound(kind, params) + abs(offset)
                   for kind, params, scale, offset in self.components)

    def sup_distance(self, other):
        """max_j sup |phi_j - psi_j|, bounded per component: a shared
        base contributes |scale - scale'| times its bound, different
        bases contribute both bounds."""
        if self.m != other.m:
            raise ValueError("component counts differ")
        best = 0.0
        for (kind, params, s, o), (kind2, params2, s2, o2) in zip(
                self.components, other.components):
            if (kind, params) == (kind2, params2):
                base = abs(s - s2) * _base_bound(kind, params)
            else:
                base = abs(s) * _base_bound(kind, params) \
                    + abs(s2) * _base_bound(kind2, params2)
            best = max(best, base + abs(o - o2))
        return best


def zero_potential(m):
    return MultiPotential(tuple(("zero", (), 1.0, 0.0) for _ in range(m)))


def constant_potential(values):
    return MultiPotential(tuple(("zero", (), 1.0, float(v)) for v in values))


def coordinate_potential(m, scale=1.0):
    return MultiPotential(tuple(("coord", (), float(scale), 0.0)
                                for _ in range(m)))


def random_potential(m, seed=0, amplitude=0.25):
    """Smooth random trig potential of three harmonics per component,
    deterministic in (m, seed)."""
    rng = random.Random("potential:%d:%d" % (seed, m))
    comps = []
    for _ in range(m):
        params = []
        for _ in range(3):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            if p == 0 and q == 0:
                p = 1
            a = rng.uniform(-1.0, 1.0)
            b = rng.uniform(-1.0, 1.0)
            params.append((p, q, a, b))
        # normalize so the amplitude bound is honest
        total = add_floats(abs(a) + abs(b) for _, _, a, b in params)
        norm = amplitude / total if total > 0 else 0.0
        params = tuple((p, q, a * norm, b * norm) for p, q, a, b in params)
        comps.append(("fourier", params, 1.0, 0.0))
    return MultiPotential(tuple(comps))


def parse_potential(spec, m, line=None):
    """potential config values: zero | coordinate | constants:c1,...
    | random:seed,amplitude"""
    spec = spec.strip()
    if spec == "zero":
        return zero_potential(m)
    if spec == "coordinate":
        return coordinate_potential(m)
    if spec.startswith("constants:"):
        body = spec[len("constants:"):]
        try:
            vals = [float(v) for v in body.split(",") if v != ""]
        except ValueError:
            raise ParseError("bad constants list %r" % body, line)
        if len(vals) == 1:
            vals = vals * m
        if len(vals) != m:
            raise ParseError("need %d constants, got %d" % (m, len(vals)),
                             line)
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("constants must be finite: %r" % body, line)
        return constant_potential(vals)
    if spec.startswith("random:"):
        body = spec[len("random:"):]
        parts = body.split(",")
        try:
            seed = int(parts[0])
            amp = float(parts[1]) if len(parts) > 1 else 0.25
        except (ValueError, IndexError):
            raise ParseError("random potential needs seed[,amplitude]", line)
        if not math.isfinite(amp):
            raise ParseError("random amplitude must be finite: %r" % body,
                             line)
        return random_potential(m, seed=seed, amplitude=amp)
    raise ParseError("unknown potential spec %r" % spec, line)
