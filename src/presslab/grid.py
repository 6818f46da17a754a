"""The grid engine: certificates on an explicit finite universe.

The one module that imports numpy.  `pressure._solve` imports it at its
grid fallback, so a request served by closed forms never loads numpy.
A grid is sized by `grid_shape` before any point exists; `grid_points`
lists its points and `grid_metrics` gives one metric table per word:
one integer difference table on torus and shift, whose generators are
endomorphisms of the grid's digit group (the g x g lattice, and
length-L words with zero padding), so a word distance depends on the
difference alone, and the region x region distances of orbit points on
intervals.

The covers and packings run on sparse balls (`_Balls`).  On torus and
shift grids every ball of radius r is a translate p - S of one support
S = {d : D(d) < r} of a table D, so no pair matrix exists there.
Interval grids keep their region x region metric, and read their balls
off its rows, until the cylinder engines of ROADMAP item 9 replace them.

Invariant: every region point lies in its own ball along every word, as
its distance to itself is 0, and has a finite weight.  The greedies rely
on it: each point is the centre of an atom that covers it, so every
cover is complete and every packing keeps at least one point.  Finite
step values whose sums overflow break it, so `_GridEngine.weights`
refuses them with a `ValueError`.
"""

from __future__ import annotations

import functools
import heapq
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
    every word) and one float32 word metric table per word: the largest
    step distance along the two orbits.

    Torus and shift maps are endomorphisms of the digit group, so
    d_w(p, q) = D_w(p - q), and the table is D_w itself, one entry per
    difference in point order: each word runs the base**rank differences
    through its steps in integers, and D_w is the running max of their
    norm.  Interval grids have no difference, and their table is the
    region x region matrix of orbit distances."""
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
    rows = np.arange(rank)[:, None]
    diffs = _digits(base, rank)
    tables = []
    for word in words:
        diff = diffs
        d_w = sizes[rows, diff].max(axis=0)
        for j in word:
            diff = mats[j - 1] @ diff % base
            np.maximum(d_w, sizes[rows, diff].max(axis=0), out=d_w)
        tables.append(d_w.astype(np.float32))
    return points, tables


def _digits(base, rank):
    """(rank, base**rank): the digits of every grid point, first digit
    most significant, in point order."""
    return np.indices((base,) * rank).reshape(rank, -1)


class _Balls:
    """One sparse ball per atom: atom i holds the points
    members[indptr[i]:indptr[i + 1]], in increasing order, out of npts.

    The tie rank and the point -> atom index are built on first use and
    kept with the arrays, so every greedy run on the same balls shares
    them."""

    def __init__(self, indptr, members, npts):
        self.indptr = indptr
        self.members = members
        self.npts = npts
        self._rank = None
        self._holders = None

    @classmethod
    def from_mask(cls, mask):
        """The balls of an (A, R) bool mask, one per row."""
        return cls(np.r_[0, np.cumsum(mask.sum(axis=1))],
                   np.nonzero(mask)[1], mask.shape[1])

    @classmethod
    def concat(cls, parts):
        """The atoms of every part in turn, on the same points."""
        sizes = np.concatenate([np.diff(b.indptr) for b in parts])
        return cls(np.r_[0, np.cumsum(sizes)],
                   np.concatenate([b.members for b in parts]), parts[0].npts)

    def __len__(self):
        return len(self.indptr) - 1

    def rank(self):
        """Rank of each atom in the order of its mask row's bytes, equal
        rows ranked equal.  At the least point two balls differ in, the
        ball without it sorts first, and so it does in the order of the
        negated sorted member lists, padded below every member."""
        if self._rank is None:
            sizes = np.diff(self.indptr)
            width = max(int(sizes.max()), 1)
            # padded with -npts, below every negated member
            keys = np.full((len(self), width), -self.npts, dtype=np.intp)
            keys[np.repeat(np.arange(len(self)), sizes),
                 np.arange(len(self.members))
                 - np.repeat(self.indptr[:-1], sizes)] = -self.members
            order = np.lexsort(keys.T[::-1])
            keys = keys[order]
            self._rank = np.empty(len(self), dtype=np.intp)
            self._rank[order] = np.cumsum(
                np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        return self._rank

    def holders(self):
        """(indptr, atoms): the atoms holding point q, in increasing
        order, are atoms[indptr[q]:indptr[q + 1]]."""
        if self._holders is None:
            atom = np.repeat(np.arange(len(self)), np.diff(self.indptr))
            self._holders = (
                np.r_[0, np.cumsum(np.bincount(self.members,
                                               minlength=self.npts))],
                atom[np.argsort(self.members, kind="stable")])
        return self._holders


class _GridEngine:
    """Certificates for one (system, n, epsilon), all on its grid: the
    metric table of every length-n word is precomputed, then cover and
    packing queries are answered per kind on sparse balls.

    On torus and shift grids every ball of a table D at radius r is a
    translate p - S of its support S = {d : D(d) < r}, and the engine
    holds no pair matrix: P points cost one length-P table per word,
    and each ball set (a word's balls, all words' balls, or the balls of
    the largest or smallest word distance) is built from S and cached.
    Interval grids keep their region x region metric per word and read
    the balls off its rows."""

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
        self._balls = {}
        self._build_metrics()

    # -- construction

    def _build_metrics(self):
        """The region (the grid points whose orbit is defined along every
        word) and one word metric table over it per word."""
        self.region, self.tables = grid_metrics(
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

    def balls(self, which, r):
        """The balls of radius r (strict) around every region point under
        one metric, cached: `which` is a word index, "max" or "min" (the
        largest or smallest word distance), or "all" (every word's
        balls, word-major, one atom per (word, centre))."""
        key = (which, r)
        if key not in self._balls:
            if which == "all":
                balls = _Balls.concat([self.balls(w, r)
                                       for w in range(len(self.words))])
            else:
                if which in ("max", "min"):
                    op = np.maximum if which == "max" else np.minimum
                    table = functools.reduce(op, self.tables)
                else:
                    table = self.tables[which]
                # a float32 table against the float radius, as `d < r`
                # compares it
                balls = _Balls.from_mask(table < r) if table.ndim == 2 \
                    else self._stencil_balls(np.flatnonzero(table < r))
            self._balls[key] = balls
        return self._balls[key]

    def _stencil_balls(self, support):
        """The balls p - S of every grid point p, for the differences
        S: each member's digits are p's minus S's, mod base."""
        base, rank = self.shape
        digits = _digits(base, rank)
        members = np.zeros((len(self.points), len(support)), dtype=np.intp)
        for row in digits:
            members *= base
            members += np.subtract.outer(row, row[support]) % base
        members.sort(axis=1)
        return _Balls(np.arange(len(self.points) + 1) * len(support),
                      members.reshape(-1), len(self.points))

    # -- greedy primitives

    def _greedy_cover_matrix(self, balls, lw):
        """Weighted greedy set cover of every point.  balls: a _Balls of
        A atoms, lw: (A,); every point lies in some atom.  Returns (log
        cost, picked indices).

        Each round picks the atom of least score lw - log(gain), gain
        its count of uncovered points; scores within 1e-12 of the least
        tie, and the tie goes to the least (lw to 12 places, rank of the
        ball, index).  Lazy (Minoux 1978): a heap holds stale scores,
        and a score only rises as its gain falls, so refreshing every
        entry within 1e-12 of the least gives every tied atom."""
        lws = lw.tolist()
        members, indptr = balls.members.tolist(), balls.indptr.tolist()
        h_indptr, h_atoms = balls.holders()
        h_ptr, h_list = h_indptr.tolist(), h_atoms.tolist()
        sizes = np.diff(balls.indptr)
        # logs[g] = log g, from one numpy table
        logs = [0.0] + np.log(np.arange(1, sizes.max() + 1)).tolist()
        gains = sizes.tolist()
        heap = [(lws[i] - logs[g], i, g) for i, g in enumerate(gains) if g]
        heapq.heapify(heap)
        # atoms that still hold two or more uncovered points
        multi = sum(g > 1 for g in gains)
        uncovered = [True] * balls.npts
        left = balls.npts
        log_terms = []
        picked = []
        rank = None
        while left and multi:
            # refresh the top until it is current: then it is the least
            while True:
                s, i, g = heap[0]
                now = gains[i]
                if now == g:
                    break
                if now:
                    heapq.heapreplace(heap, (lws[i] - logs[now], i, now))
                else:
                    heapq.heappop(heap)
            top = s + 1e-12
            cand = []
            while heap and heap[0][0] <= top:
                s, i, g = heapq.heappop(heap)
                now = gains[i]
                if now != g:
                    if not now:
                        continue
                    s, g = lws[i] - logs[now], now
                    if s > top:
                        heapq.heappush(heap, (s, i, g))
                        continue
                cand.append((s, i, g))
            if len(cand) == 1:
                a = cand[0][1]
            else:
                if rank is None:
                    rank = balls.rank().tolist()
                a = min((i for _, i, _ in cand),
                        key=lambda i: (round(lws[i], 12), rank[i], i))
            for entry in cand:
                if entry[1] != a:
                    heapq.heappush(heap, entry)
            log_terms.append(lws[a])
            picked.append(a)
            for q in members[indptr[a]:indptr[a + 1]]:
                if uncovered[q]:
                    uncovered[q] = False
                    left -= 1
                    for b in h_list[h_ptr[q]:h_ptr[q + 1]]:
                        g = gains[b]
                        if g == 2:
                            multi -= 1
                        gains[b] = g - 1
        if left:
            # tail: every live atom holds one uncovered point, and each
            # point takes its cheapest atom (the least index on ties, as
            # lexsort is stable), in point order
            points = np.flatnonzero(uncovered)
            starts = h_indptr[points]
            counts = h_indptr[points + 1] - starts
            offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            atoms = h_atoms[offsets + np.arange(len(offsets))]
            points = np.repeat(points, counts)
            order = np.lexsort((lw[atoms], points))
            atoms, points = atoms[order], points[order]
            first = np.r_[True, points[1:] != points[:-1]]
            log_terms.extend(lw[atoms[first]].tolist())
            picked.extend(atoms[first].tolist())
        return log_sum_exp(log_terms), picked

    def _greedy_packing(self, balls, w_log):
        """Greedy separated set maximizing weights: each kept point drops
        the points of its ball, of radius 2 epsilon."""
        members, indptr = balls.members.tolist(), balls.indptr.tolist()
        far = [True] * len(w_log)
        kept = []
        for i in np.argsort(-w_log, kind="stable").tolist():
            if far[i]:
                kept.append(i)
                for q in members[indptr[i]:indptr[i + 1]]:
                    far[q] = False
        return log_sum_exp(w_log[kept].tolist()), len(kept)

    # -- kind plumbing

    @staticmethod
    def _joint(kind):
        """Largest word distance for condensed kinds (every-word balls),
        smallest for the others (some-word balls or separation)."""
        return "max" if kind.startswith("condensed") else "min"

    def word_cover(self, phi, w):
        """Greedy cover of the region by the balls of word index w under
        phi, memoized per potential and word: the trajectory cover, each
        term of the free cover and each single-word amalgamated
        candidate all read it."""
        key = (phi.components, w)
        sol = self._word_covers.get(key)
        if sol is None:
            log_cost, picked = self._greedy_cover_matrix(
                self.balls(w, self.epsilon), self.weights(phi)[w])
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
                self.balls(self._joint(kind), self.epsilon),
                _side_weight(s, kind))
            return CoverSolution(log_cost, len(picked), METHOD_GRID,
                                 "grid-certified greedy cover")
        # one atom per (word, centre), word-major
        log_cost, picked = self._greedy_cover_matrix(
            self.balls("all", self.epsilon), s.reshape(-1))
        npts = len(self.region)
        atoms = tuple((self.words[i // npts], self.region[i % npts])
                      for i in picked)
        sol = CoverSolution(log_cost, len(picked), METHOD_GRID,
                            "grid-certified greedy cover", atoms)
        # any one-word cover is an admissible amalgamated cover, so the
        # greedy over mixed atoms must never report worse than the best
        # pool word; this keeps the induced-cover comparison exact
        for word in pool:
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
            log_sum, count = self._greedy_packing(self.balls(w, eps2), s[w])
        elif kind.startswith("exhaustive"):
            log_sum, count = self._mask_packing(
                self.balls(self._joint(kind), self.epsilon),
                _side_weight(s, kind))
        else:
            if kind == "free":
                w_log = _log_mean_exp(s)
            elif kind == "amalgamated":
                w_log = s.min(axis=0)
            else:
                w_log = _side_weight(s, kind)
            log_sum, count = self._greedy_packing(
                self.balls(self._joint(kind), eps2), w_log)
        return CoverSolution(log_sum, count, METHOD_GRID,
                             "grid-certified greedy packing")

    def _mask_packing(self, balls, w_log):
        """Exhaustive separation: keep points whose some-word grid balls
        are pairwise disjoint."""
        members, indptr = balls.members.tolist(), balls.indptr.tolist()
        taken = [False] * len(w_log)
        kept = []
        for i in np.argsort(-w_log, kind="stable").tolist():
            ball = members[indptr[i]:indptr[i + 1]]
            if not any(taken[q] for q in ball):
                kept.append(i)
                for q in ball:
                    taken[q] = True
        return log_sum_exp(w_log[kept].tolist()), len(kept)


def _side_weight(s, kind):
    """Per-point smallest sum over words for lower kinds, else largest."""
    return s.min(axis=0) if kind.endswith("lower") else s.max(axis=0)


def _log_mean_exp(s):
    """Per-point log of the mean over words of exp(S)."""
    peak = s.max(axis=0)
    return peak + np.log(np.exp(s - peak).mean(axis=0))


@functools.lru_cache(maxsize=7)
def _grid_engine(system, n, epsilon, words=None):
    return _GridEngine(system, n, epsilon, words=words)


def _grid_engine_for(system, kind, n, epsilon, rule):
    """Full-word engine, or a single-word engine when only a trajectory
    query is asked and full enumeration is out of reach."""
    try:
        return _grid_engine(system, n, float(epsilon))
    except DepthTooLarge:
        if kind != "trajectory":
            raise
        return _grid_engine(system, n, float(epsilon),
                            words=(rule.word_at(n),))
