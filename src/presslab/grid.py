"""The grid engine: certificates on an explicit finite universe.

The one module that imports numpy.  `pressure._solve` imports it at its
grid fallback, so a request served by closed forms never loads numpy.
A grid is sized by `grid_shape` before any point exists; `grid_points`
lists its points and `grid_metrics` gives one pairwise metric per word:
distances of orbit points on intervals, and one integer difference
table on torus and shift, whose generators are endomorphisms of the
grid's digit group (the g x g lattice, and length-L words with zero
padding), so a word distance depends on the difference alone.

Invariant: every region point lies in its own ball along every word, as
its distance to itself is 0, and has a finite weight.  The greedies rely
on it: each point is the centre of an atom that covers it, so every
cover is complete and every packing keeps at least one point.  Finite
step values whose sums overflow break it, so `_GridEngine.weights`
refuses them with a `ValueError`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .analytic import log_sum_exp
from .errors import DepthTooLarge
from .pressure import METHOD_GRID, CoverSolution
from .words import all_words, consecutive_sum, orbit

GRID_BUDGET = 300_000_000

# caps of grid_points: torus lattice side and interval cells, to which a
# finer radius is rounded up, and shift length, past which a word is refused
GRID_MAX_TORUS = 40
GRID_MAX_LINE = 1024
GRID_MAX_SHIFT_LENGTH = 10


def grid_shape(system, epsilon, n):
    """(base, rank) of the depth-n grid at radius epsilon: its points are
    the base**rank digit tuples, in `itertools.product` order.

    A shift ball of radius epsilon along a word of total step S is the
    cylinder of its first k + S symbols, with k the least integer such
    that 2**-k < epsilon.  The shift rank n*max(step) + k holds every
    such cylinder of a depth-n word, with 2**-rank <= epsilon/2 for
    n >= 1; a rank past GRID_MAX_SHIFT_LENGTH is refused."""
    if system.is_toral:
        return max(8, min(GRID_MAX_TORUS, math.ceil(4.0 / epsilon))), 2
    if system.is_interval:
        return max(32, min(GRID_MAX_LINE, math.ceil(8.0 / epsilon))) + 1, 1
    step = max(gen.step for gen in system.generators)
    # the least k with 2**k > 1/epsilon, exact on the float's rational
    rank = n * step + math.floor(1 / Fraction(epsilon)).bit_length()
    if rank > GRID_MAX_SHIFT_LENGTH:
        raise DepthTooLarge(
            "a shift grid at depth %d and radius %r needs %d symbols, "
            "past the %d-symbol cap" % (n, epsilon, rank,
                                        GRID_MAX_SHIFT_LENGTH))
    return system.generators[0].alphabet, rank


def grid_points(system, base, rank):
    """Digit i is i/base on the torus, i/(base - 1) on intervals and
    symbol i on the shift."""
    if system.is_interval:
        return [i / (base - 1) for i in range(base)]
    digits = [i / base for i in range(base)] if system.is_toral \
        else range(base)
    return list(itertools.product(digits, repeat=rank))


def grid_metrics(system, points, words, base, rank):
    """The region of a grid (its points whose orbit is defined along
    every word) and one float32 region x region word metric per word:
    the largest step distance along the two orbits.  Torus and shift
    maps are endomorphisms of the digit group, so d_w(p, q) =
    D_w(p - q): each word runs the base**rank differences through its
    steps in integers, and D_w is the running max of their norm."""
    if system.is_interval:
        orbits = [[orbit(system, x, word) for x in points] for word in words]
        alive = [i for i in range(len(points))
                 if all(o[i] is not None for o in orbits)]
        dist = []
        for paths in orbits:
            d = np.zeros((len(alive), len(alive)))
            for step in zip(*(paths[i] for i in alive)):
                gap = np.abs(np.subtract.outer(step, step))
                if system.wrap:
                    gap = np.minimum(gap, 1.0 - gap)
                np.maximum(d, gap, out=d)
            dist.append(d.astype(np.float32))
        return [points[i] for i in alive], dist
    # a difference's norm: the max of sizes[c, digit c] over digits c
    v = np.arange(base)
    if system.is_toral:
        # entries reduced mod base first: exact, and no int64 overflow
        mats = [np.array(gen.matrix) % base for gen in system.generators]
        sizes = np.tile(np.minimum(v, base - v) / base, (rank, 1))
    else:
        # sigma^s moves digit i + s to i, padding zeros; 2**-j at the
        # first nonzero digit j, 0 at none
        mats = [np.eye(rank, k=gen.step, dtype=int)
                for gen in system.generators]
        sizes = np.outer(np.ldexp(1.0, -np.arange(rank)), v > 0)
    # idx[p, q]: the index of the digit-wise difference p - q, built
    # one digit at a time, as point p*base + a is p with a appended
    step = np.subtract.outer(v, v) % base
    idx = np.zeros((1, 1), dtype=np.intp)
    for _ in range(rank):
        idx = (idx[:, None, :, None] * base + step[:, None]).reshape(
            len(idx) * base, -1)
    rows = np.arange(rank)[:, None]
    diffs = np.indices((base,) * rank).reshape(rank, -1)
    dist = []
    for word in words:
        diff = diffs
        d_w = sizes[rows, diff].max(axis=0)
        for j in word:
            diff = mats[j - 1] @ diff % base
            np.maximum(d_w, sizes[rows, diff].max(axis=0), out=d_w)
        dist.append(d_w.astype(np.float32)[idx])
    return points, dist


class _GridEngine:
    """Certificates for one (system, n, epsilon), all on its grid: the
    pairwise metric of every length-n word is precomputed, then cover and
    packing queries are answered per kind."""

    def __init__(self, system, n, epsilon, words=None):
        # given words restrict the universe: certificates for them only
        self.words = list(all_words(system.m, n) if words is None else words)
        self.system = system
        self.n = n
        self.epsilon = float(epsilon)
        # sized from its shape before any point exists
        self.shape = grid_shape(system, self.epsilon, n)
        npts = self.shape[0] ** self.shape[1]
        if len(self.words) * npts * npts > GRID_BUDGET:
            raise DepthTooLarge(
                "grid certificates need %d x %d^2 pair entries; reduce the "
                "depth or use a closed-form system" % (len(self.words), npts))
        self.points = grid_points(system, *self.shape)
        self._phi_cache = {}
        self._word_covers = {}
        self._build_metrics()

    # -- construction

    def _build_metrics(self):
        """The region (the grid points whose orbit is defined along every
        word) and one pairwise word metric over it per word."""
        self.region, self.dist = grid_metrics(
            self.system, self.points, self.words, *self.shape)

    def weights(self, phi):
        """S[word][region point]: consecutive sums along every word."""
        # engines outlive potential objects, so id() keys would collide
        # once the allocator reuses an address
        key = phi.components
        if key not in self._phi_cache:
            # built per point and transposed: each point's words are
            # contiguous, which fixes the summation order of the word mean;
            # orbits revisit points, so each (generator, point) step is
            # evaluated once
            steps = {}
            arr = np.array(
                [[consecutive_sum(self.system, phi, x, word, steps)
                  for word in self.words] for x in self.region]).T
            # finite step values can still sum past the float range
            if not np.isfinite(arr).all():
                raise ValueError(
                    "the potential's consecutive sums overflow at depth %d"
                    % self.n)
            self._phi_cache[key] = arr
        return self._phi_cache[key]

    # -- greedy primitives

    def _greedy_cover_matrix(self, masks, lw):
        """Weighted greedy set cover of every point.  masks: (A, R) bool,
        lw: (A,); every point lies in some atom.  Returns (log cost,
        picked indices)."""
        uncovered = np.ones(masks.shape[1], dtype=bool)
        # uncovered points per atom, kept up to date as points get covered
        gains = masks.sum(axis=1)
        log_terms = []
        picked = []
        while uncovered.any():
            live = gains > 0
            scores = np.where(live, lw - np.log(np.maximum(gains, 1)),
                              np.inf)
            smin = scores.min()
            if gains[live].max() == 1:
                # tail: every live atom holds one uncovered point, and each
                # point takes its cheapest atom (the first one on ties, as
                # lexsort is stable), in point order
                atoms = np.flatnonzero(live)
                points = masks[np.ix_(atoms, np.flatnonzero(uncovered))] \
                    .argmax(axis=1)
                order = np.lexsort((lw[atoms], points))
                atoms, points = atoms[order], points[order]
                first = np.r_[True, points[1:] != points[:-1]]
                log_terms.extend(lw[atoms[first]].tolist())
                picked.extend(atoms[first].tolist())
                break
            cand = np.where(scores <= smin + 1e-12)[0]
            a = min(cand, key=lambda i: (round(float(lw[i]), 12),
                                         masks[i].tobytes(), int(i)))
            log_terms.append(float(lw[a]))
            picked.append(int(a))
            newly = masks[a] & uncovered
            uncovered &= ~newly
            gains -= masks[:, newly].sum(axis=1)
        return log_sum_exp(log_terms), picked

    def _greedy_packing(self, sep, w_log, eps2):
        """Greedy separated set maximizing weights; sep is the pairwise
        metric over the region."""
        far = np.ones(len(w_log), dtype=bool)
        kept = []
        for i in np.argsort(-w_log, kind="stable"):
            if far[i]:
                kept.append(i)
                far &= sep[i] >= eps2
        return log_sum_exp(w_log[kept].tolist()), len(kept)

    # -- kind plumbing

    def _joint_metric(self, kind):
        """Largest word distance for condensed kinds (every-word balls),
        smallest for the others (some-word balls or separation)."""
        op = np.maximum if kind.startswith("condensed") else np.minimum
        return functools.reduce(op, self.dist)

    def word_cover(self, phi, w):
        """Greedy cover of the region by the balls of word index w under
        phi, memoized per potential and word: the trajectory cover, each
        term of the free cover and each single-word amalgamated
        candidate all read it."""
        key = (phi.components, w)
        sol = self._word_covers.get(key)
        if sol is None:
            log_cost, picked = self._greedy_cover_matrix(
                self.dist[w] < self.epsilon, self.weights(phi)[w])
            atoms = tuple((self.words[w], self.region[i]) for i in picked)
            sol = CoverSolution(log_cost, len(picked), METHOD_GRID,
                                "grid-certified greedy cover", atoms)
            self._word_covers[key] = sol
        return sol

    def cover(self, phi, kind, rule, pool):
        if len(self.region) == 0:
            return CoverSolution(-math.inf, 0, METHOD_GRID, "empty region")
        if kind == "free":
            return self._free_cover(phi)
        if kind == "trajectory":
            return self.word_cover(phi, self.words.index(rule.word_at(self.n)))
        s = self.weights(phi)
        if kind != "amalgamated":
            log_cost, picked = self._greedy_cover_matrix(
                self._joint_metric(kind) < self.epsilon, _side_weight(s, kind))
            return CoverSolution(log_cost, len(picked), METHOD_GRID,
                                 "grid-certified greedy cover")
        # one atom per (word, centre), word-major
        masks = np.concatenate([d < self.epsilon for d in self.dist])
        log_cost, picked = self._greedy_cover_matrix(masks, s.reshape(-1))
        npts = len(self.region)
        atoms = tuple((self.words[i // npts], self.region[i % npts])
                      for i in picked)
        sol = CoverSolution(log_cost, len(picked), METHOD_GRID,
                            "grid-certified greedy cover", atoms)
        # any one-word cover is an admissible amalgamated cover, so the
        # greedy over mixed atoms must never report worse than the best
        # pool word; this keeps the induced-cover comparison exact
        for word in pool.words(self.n):
            cand = self.word_cover(phi, self.words.index(word))
            if cand.log_cost < sol.log_cost:
                sol = CoverSolution(cand.log_cost, cand.size, cand.method,
                                    "single-word cover beat the joint "
                                    "greedy", cand.atoms)
        return sol

    def _free_cover(self, phi):
        sols = [self.word_cover(phi, w) for w in range(len(self.words))]
        log_mean = log_sum_exp([sol.log_cost for sol in sols]) \
            - math.log(len(self.words))
        return CoverSolution(log_mean, max(sol.size for sol in sols),
                             METHOD_GRID, "word-averaged greedy covers")

    def packing(self, phi, kind, rule=None):
        if len(self.region) == 0:
            return CoverSolution(-math.inf, 0, METHOD_GRID, "empty region")
        eps2 = 2.0 * self.epsilon
        s = self.weights(phi)
        if kind == "trajectory":
            w = self.words.index(rule.word_at(self.n))
            log_sum, count = self._greedy_packing(self.dist[w], s[w], eps2)
        elif kind.startswith("exhaustive"):
            log_sum, count = self._mask_packing(
                self._joint_metric(kind) < self.epsilon, _side_weight(s, kind))
        else:
            if kind == "free":
                w_log = _log_mean_exp(s)
            elif kind == "amalgamated":
                w_log = s.min(axis=0)
            else:
                w_log = _side_weight(s, kind)
            log_sum, count = self._greedy_packing(self._joint_metric(kind),
                                                  w_log, eps2)
        return CoverSolution(log_sum, count, METHOD_GRID,
                             "grid-certified greedy packing")

    def _mask_packing(self, union, w_log):
        """Exhaustive separation: keep points whose some-word grid balls
        are pairwise disjoint."""
        taken = np.zeros(union.shape[1], dtype=bool)
        kept = []
        for i in np.argsort(-w_log, kind="stable"):
            if not (union[i] & taken).any():
                kept.append(i)
                taken |= union[i]
        return log_sum_exp(w_log[kept].tolist()), len(kept)


def _side_weight(s, kind):
    """Per-point smallest sum over words for lower kinds, else largest."""
    return s.min(axis=0) if kind.endswith("lower") else s.max(axis=0)


def _log_mean_exp(s):
    """Per-point log of the mean over words of exp(S)."""
    peak = s.max(axis=0)
    return peak + np.log(np.exp(s - peak).mean(axis=0))


_ENGINE_CACHE = {}


def _grid_engine(system, n, epsilon, words=None):
    words_key = None if words is None else tuple(w.symbols for w in words)
    key = (system.domain, system.generators, n, float(epsilon), words_key)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        if len(_ENGINE_CACHE) > 6:
            _ENGINE_CACHE.clear()
        engine = _GridEngine(system, n, epsilon, words=words)
        _ENGINE_CACHE[key] = engine
    return engine


def _grid_engine_for(system, kind, n, epsilon, rule):
    """Full-word engine, or a single-word engine when only a trajectory
    query is asked and full enumeration is out of reach."""
    try:
        return _grid_engine(system, n, epsilon)
    except DepthTooLarge:
        if kind != "trajectory":
            raise
        return _grid_engine(system, n, epsilon, words=[rule.word_at(n)])
