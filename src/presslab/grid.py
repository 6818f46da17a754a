"""The grid engine: certificates on an explicit finite universe.

Standard library only.  `pressure._solve` imports it at its grid
fallback.  A grid is sized by `grid_shape` before any point exists;
`grid_points` lists its points and `grid_metrics` gives the region and
one metric table per word: an integer difference table (in units of
1/g and 2**-L) on torus and shift, whose generators are endomorphisms
of the grid's digit group (the g x g lattice, and length-L words with
zero padding), so a word distance depends on the difference alone, and
the orbits of the region points on intervals.  Weights follow the same
orbits, and no map is applied twice.

On torus and shift grids every ball of radius r is a translate p + S of
one support S = {d : D(d) < r} of a table D, and S = -S, as every map and
norm is odd; the engine keeps S alone.  No greedy lays a ball out: a
ball set (`_Balls`) adds S to p digit by digit each time a greedy reads
p's ball, and the balls holding q are those centred in q + S.  Interval
balls are read off a window of the sorted points, filtered by the later
steps.  The cover greedy keeps one heap entry per centre, not per atom:
about 32-38 bytes per (word, centre) atom in all, its gains and weights
included.

Invariant: every region point lies in its own ball along every word, as
its distance to itself is 0, and has a finite weight.  The greedies rely
on it: each point is the centre of an atom that covers it, so every
cover is complete and every packing keeps at least one point.  Finite
step values whose sums overflow break it, so `_GridEngine.weights`
refuses them with a `ValueError`.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from array import array

from .analytic import exact_radius, log_sum_exp
from .errors import DepthTooLarge
from .pressure import METHOD_GRID, CoverSolution
from .words import add_floats, all_words, orbit

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
    r = exact_radius(epsilon)
    if system.is_toral:
        return max(8, min(GRID_MAX_TORUS, math.ceil(4 / r))), 2
    if system.is_interval:
        return max(32, min(GRID_MAX_LINE, math.ceil(8 / r))) + 1, 1
    step = max(gen.step for gen in system.generators)
    # the least k with 2**k > 1/r
    rank = n * step + math.floor(1 / r).bit_length()
    if rank > GRID_MAX_SHIFT_LENGTH:
        raise DepthTooLarge(
            "a shift grid at depth %d and radius %r needs %d symbols, "
            "past the %d-symbol cap" % (n, float(r), rank,
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
    every word) and one metric table per word.

    Torus and shift maps are endomorphisms of the digit group, so
    d_w(p, q) = D_w(p - q), and the table is D_w itself, one integer
    entry per difference in point order, in units of 1/base on the torus
    (array "B") and of 2**-rank on the shift ("H"): the running max of
    the norm along the orbit of every difference (`_walk`).  Interval
    grids have no difference, and their table is the orbit of every
    region point."""
    if system.is_interval:
        orbits = [[orbit(system, x, word) for x in points] for word in words]
        alive = [i for i in range(len(points))
                 if all(o[i] is not None for o in orbits)]
        return ([points[i] for i in alive],
                [[o[i] for i in alive] for o in orbits])
    digits = list(itertools.product(range(base), repeat=rank))
    if system.is_toral:
        # in units of 1/base: the larger circle distance of the two digits
        units = [max(min(v, base - v) for v in d) for d in digits]
    else:
        # 2**(rank - j) units at the first nonzero digit j, 0 at none
        units = [1 << rank >> next((j for j, v in enumerate(d) if v),
                                   rank + 1) for d in digits]
    runs = _walk(system, base, rank, words, units, lambda run, j, image,
                 after: list(map(max, run, map(units.__getitem__, after))))
    return points, [array("B" if system.is_toral else "H", run)
                    for run in runs]


def _walk(system, base, rank, words, start, fold):
    """Per word in turn, a row carried along the orbit of every digit
    index: from `start`, step j takes the orbit points `image` to their
    images `after` and the row to fold(row, j, image, after), a torus
    matrix acting on the digits mod base and sigma^s moving digit i + s
    to i, padding zeros.  Words that share a prefix share its steps."""
    size = base ** rank
    if system.is_toral:
        steps = [[(a * u + b * v) % base * base + (c * u + d * v) % base
                  for u, v in itertools.product(range(base), repeat=2)]
                 for (a, b), (c, d) in (gen.matrix
                                        for gen in system.generators)]
    else:
        steps = [[d * base ** gen.step % size for d in range(size)]
                 for gen in system.generators]
    path = [(range(size), start)]
    prev = ()
    for word in words:
        keep = next((k for k, (i, j) in enumerate(zip(word, prev)) if i != j),
                    min(len(word), len(prev)))
        del path[keep + 1:]
        for j in word.symbols[keep:]:
            image, row = path[-1]
            after = list(map(steps[j - 1].__getitem__, image))
            path.append((after, fold(row, j, image, after)))
        yield path[-1][1]
        prev = word.symbols


def _f32(x):
    """x rounded to float32, for interval rows alone: a float32 orbit
    distance d is inside radius r iff d < _f32(r), so a distance that
    rounds to _f32(r) stays out even where _f32(r) < r."""
    return array("f", (x,))[0]


@functools.lru_cache(maxsize=None)
def _translation(t, width, base):
    """A getter of the entries x + t, digit by digit mod base, from a
    sequence of all width-digit x in point order (width >= 1)."""
    perm = [0]
    for j in reversed(range(width)):
        ring = [(v + t // base ** j) % base for v in range(base)]
        perm = [q * base + v for q in perm for v in ring]
    return operator.itemgetter(*perm)


@functools.lru_cache(maxsize=None)
def _doubled_lattice(base):
    """The points of the base x base lattice on its doubled 2base x 2base
    rows, row-major: entry i 2base + j is the point (i, j) mod base."""
    points = list(range(base * base))
    return [points[i % base * base + j % base]
            for i in range(2 * base) for j in range(2 * base)]


def _window(xs, lo, hi):
    """Indices of the sorted xs in [lo, hi], one more on each side: a
    superset that rounding at the ends cannot shrink."""
    return range(max(bisect.bisect_left(xs, lo) - 1, 0),
                 min(bisect.bisect_right(xs, hi) + 1, len(xs)))


class _Balls:
    """A ball set on npts points, one ball per atom: atom a holds the
    points members(a), and point q lies in the balls of the atoms
    holders(q); sizes[a] is atom a's point count.  Without holders, the
    balls are those of one symmetric metric, one centred at each point:
    q lies in p's ball iff p lies in q's, so q's holders are the members
    of q's ball."""

    def __init__(self, members, sizes, holders=None, npts=None):
        self.members = members
        self.sizes = sizes
        self.holders = members if holders is None else holders
        self.npts = len(sizes) if npts is None else npts

    def __len__(self):
        return len(self.sizes)


class _GridEngine:
    """Certificates for one (system, n, epsilon), all on its grid: the
    metric table of every length-n word is precomputed, then cover and
    packing queries are answered per kind on ball sets.

    The radius is held exact, as `analytic.exact_radius` reads it.  On
    torus and shift grids the engine holds one length-P integer table
    per word and, per radius and metric (a word, or the largest or
    smallest word distance), the support S of its balls p + S, which
    each greedy computes per centre as it reads them.  Interval grids
    hold their region orbits, and per radius and metric the member list
    of every ball."""

    def __init__(self, system, n, epsilon, words=None):
        # given words restrict the universe: certificates for them only
        self.words = list(all_words(system.m, n) if words is None else words)
        self.system = system
        self.n = n
        self.epsilon = exact_radius(epsilon)
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
        self._held = {}
        self._build_metrics()

    # -- construction

    def _build_metrics(self):
        """The region (the grid points whose orbit is defined along every
        word) and one word metric table over it per word."""
        self.region, self.tables = grid_metrics(
            self.system, self.points, self.words, *self.shape)

    def weights(self, phi):
        """S[word][region point]: consecutive sums along every word, as
        `words.consecutive_sum` adds them, each phi_j evaluated once per
        point: along the held orbits on intervals, else by `_walk`."""
        # engines outlive potential objects, so id() keys would collide
        # once the allocator reuses an address
        key = phi.components
        if key not in self._phi_cache:
            if self.system.is_interval:
                value = functools.cache(phi.eval)
                sums = [array("d", [add_floats(map(value, word, o))
                                    for o in orbits])
                        for word, orbits in zip(self.words, self.tables)]
            else:
                phis = [[phi.eval(j, x) for x in self.points]
                        for j in range(1, self.system.m + 1)]
                sums = [array("d", total) for total in _walk(
                    self.system, *self.shape, self.words,
                    [0.0] * len(self.points),
                    lambda total, j, image, after: list(map(
                        operator.add, total,
                        map(phis[j - 1].__getitem__, image))))]
            # finite step values can still sum past the float range
            if not all(map(math.isfinite, itertools.chain(*sums))):
                raise ValueError(
                    "the potential's consecutive sums overflow at depth %d"
                    % self.n)
            self._phi_cache[key] = sums
        return self._phi_cache[key]

    def balls(self, which, r):
        """The balls of radius r (strict) around every region point under
        one metric: `which` is a word index, "max" or "min" (the largest
        or smallest word distance), or "all" (every word's balls,
        word-major, one atom per (word, centre)).  No ball is laid out:
        members and holders are computed per call."""
        npts = len(self.region)
        if which != "all":
            held = self._ball_data(which, r)
            if self.system.is_interval:
                return _Balls(held.__getitem__, list(map(len, held)))
            return _Balls(self._plus(held), [len(held)] * npts)
        words = range(len(self.words))
        parts = [self.balls(w, r) for w in words]
        # one word's balls are symmetric: q lies in its members' balls
        members = [part.members for part in parts]
        if self.system.is_interval:
            def holders(q):
                return [w * npts + b for w in words for b in members[w](q)]
        else:
            # the atoms (w, p) holding q are the p in q + S_w, offset by
            # word, read off one list of every word's support
            supports = [self._ball_data(w, r) for w in words]
            holders = self._plus(
                [s for support in supports for s in support],
                [w * npts for w in words for _ in supports[w]])
        return _Balls(lambda a: members[a // npts](a % npts),
                      [k for part in parts for k in part.sizes], holders,
                      npts)

    def _plus(self, support, offsets=None):
        """p -> the points p + s over the support's s, added digit by
        digit mod base, and with offsets (multiples of the point count,
        one per s) each plus its offset.  Base 2 adds by XOR, a rank-2
        grid reads p + s off the doubled lattice, and other grids add
        the high and the low digits apart through `_translation`."""
        base, rank = self.shape
        if base == 2:
            # an offset shares no bit with p ^ s < 2**rank
            terms = support if offsets is None \
                else list(map(operator.or_, offsets, support))
            return lambda p: [p ^ t for t in terms]
        if rank == 2:
            # x = u base + v sits at u 2base + v of the doubled lattice,
            # and the sum of two such positions holds x + y
            lattice = _doubled_lattice(base)
            cells = [s + s // base * base for s in support]
            if offsets is None:
                def plus(p):
                    k = p + p // base * base
                    return [lattice[k + c] for c in cells]
            else:
                terms = list(zip(offsets, cells))

                def plus(p):
                    k = p + p // base * base
                    return [o + lattice[k + c] for o, c in terms]
            return plus
        high, low = rank // 2, rank - rank // 2
        size = base ** low
        his = range(0, base ** rank, size)
        terms = [(o, *divmod(s, size)) for o, s in
                 zip(offsets or itertools.repeat(0), support)]

        def plus(p):
            hi = _translation(p // size, high, base)(his)
            lo = _translation(p % size, low, base)(range(size))
            return [o + hi[a] + lo[b] for o, a, b in terms]
        return plus

    def _ball_data(self, which, r):
        """What the engine keeps of one ball set, cached: the support on
        torus and shift, each ball's members on intervals.  A point lies
        within r of p in the largest word distance iff it does in every
        word's, and in the smallest iff it does in some word's.  A table
        entry of k units u is in iff k < ceil(r / u), r exact."""
        r = exact_radius(r)
        if (which, r) not in self._held:
            if not self.system.is_interval:
                limit = math.ceil(r * (self.shape[0] if self.system.is_toral
                                       else 1 << self.shape[1]))
                table = self.tables[which] if isinstance(which, int) else \
                    map(max if which == "max" else min, zip(*self.tables))
                held = [d for d, x in enumerate(table) if x < limit]
            elif isinstance(which, int):
                held = self._interval_rows(self.tables[which], _f32(r))
            else:
                joint = set.intersection if which == "max" else set.union
                held = [sorted(joint(*map(set, rows))) for rows in zip(
                    *(self._ball_data(w, r) for w in range(len(self.words))))]
            self._held[which, r] = held
        return self._held[which, r]

    def _interval_rows(self, orbits, r32):
        """The members of every region point's ball along one word, in
        increasing order: the points whose float32 orbit distance is
        below r32.  The first orbit coordinate is the point itself,
        increasing in region order, so the candidates are a window of
        it, or three on the circle.  Each pair is checked once, from the
        last step back as the steps expand: a gap of r32 or more rounds
        to r32 or more, so it rejects at once."""
        wrap = self.system.wrap
        xs = [o[0] for o in orbits]
        backward = [o[::-1] for o in orbits]
        rows = [[] for _ in orbits]
        for p, (x, op) in enumerate(zip(xs, backward)):
            rows[p].append(p)
            cand = _window(xs, x - r32, x + r32)
            if wrap:
                cand = sorted({*cand, *_window(xs, x - r32 + 1, x + r32 + 1),
                               *_window(xs, x - r32 - 1, x + r32 - 1)})
            for q in cand:
                if q <= p:
                    continue
                d = 0.0
                for a, b in zip(op, backward[q]):
                    gap = abs(a - b)
                    d = max(d, min(gap, 1.0 - gap) if wrap else gap)
                    if d >= r32:
                        break
                else:
                    if _f32(d) < r32:
                        rows[p].append(q)
                        rows[q].append(p)
        return rows

    # -- greedy primitives

    def _greedy_cover_matrix(self, balls, lw):
        """Weighted greedy set cover of every point.  balls: a _Balls of
        A atoms on P points, lw: A weights, held as one array; every
        point lies in some atom.  Returns (log cost, picked indices).

        Each round picks the atom of least score lw - log(gain), gain
        its count of uncovered points; scores within 1e-12 of the least
        tie, and the tie goes to the least (lw to 12 places, ball, index),
        balls ordered as their membership rows: at the least point two
        balls differ in, the ball without it first.

        Lazy (Minoux 1978), with one heap entry per centre p for the
        atoms a = p mod P (one per word in an "all" set): (key, atom,
        gain, next), the atom's score at that gain, the least of the
        group when read, and a bound next on every other live atom of
        the group.  A score only rises as its gain falls, so the key is
        a lower bound on the group: the top's key is the least score
        once its atom keeps its gain, and every atom within 1e-12 of it
        lies in a group whose key is too.  The group is read again in
        full only when its atom died or scores past next, or when next
        itself is within 1e-12."""
        lws = array("d", lw)
        members, holders = balls.members, balls.holders
        npts = balls.npts
        gains = list(balls.sizes)
        atoms = len(gains)
        inf = math.inf
        logs = [0.0] + [math.log(g) for g in range(1, max(gains) + 1)]

        def read(p):
            # group p's entry, None once every atom of it is spent
            key = nxt = inf
            a = g = 0
            for b in range(p, atoms, npts):
                now = gains[b]
                if now:
                    s = lws[b] - logs[now]
                    if s < key:
                        key, nxt, a, g = s, key, b, now
                    elif s < nxt:
                        nxt = s
            return (key, a, g, nxt) if g else None

        def current(entry):
            # the entry itself while its atom keeps its gain, rescored
            # while still within next, None once the group's last live
            # atom is spent, else the group read again: another atom of
            # it may be its least now
            _, a, g, nxt = entry
            now = gains[a]
            if now == g:
                return entry
            if now and (s := lws[a] - logs[now]) <= nxt:
                return s, a, now, nxt
            if not now and nxt == inf:
                return None
            return read(a % npts)

        # each centre's first atom, then the later ones folded in, in one
        # pass over the atoms: a read per centre would cost a one-word
        # greedy about a fifth of its time
        heap = [(lws[a] - logs[g], a, g, inf) if g else (inf, a, 0, inf)
                for a, g in enumerate(itertools.islice(gains, npts))]
        for a in range(npts, atoms):
            g = gains[a]
            if g:
                s = lws[a] - logs[g]
                key, least, gain, nxt = heap[a % npts]
                if s < key:
                    heap[a % npts] = (s, a, g, key)
                elif s < nxt:
                    heap[a % npts] = (key, least, gain, s)
        # a spent centre keeps an infinite key, after every live one
        heapq.heapify(heap)
        # atoms that still hold two or more uncovered points
        multi = sum(g > 1 for g in gains)
        uncovered = [True] * npts
        left = npts
        log_terms = []
        picked = []
        while left and multi:
            # refresh the top until its atom keeps its gain: then its key
            # is the least score
            while (entry := current(heap[0])) is not heap[0]:
                if entry:
                    heapq.heapreplace(heap, entry)
                else:
                    heapq.heappop(heap)
            top = entry[0] + 1e-12
            cand = []
            while heap and heap[0][0] <= top:
                entry = current(heapq.heappop(heap))
                if entry and entry[0] > top:
                    heapq.heappush(heap, entry)
                elif entry:
                    cand.append(entry)
            a = cand[0][1]
            if len(cand) > 1 or cand[0][3] <= top:
                # the tied atoms: each group's own, and every atom of it
                # within 1e-12 when next is; a membership row sorts as its
                # negated member list, and only the tied atoms are ordered
                tied = [b for _, c, _, nxt in cand
                        for b in (range(c % npts, atoms, npts)
                                  if nxt <= top else (c,))
                        if gains[b] and lws[b] - logs[gains[b]] <= top]
                a = min(tied, key=lambda i: (
                    round(lws[i], 12), [-q for q in sorted(members(i))], i))
            for entry in cand:
                # the picked atom is spent: its group is gone with it
                # unless another atom of it was live
                if entry[1] != a or entry[3] < inf:
                    heapq.heappush(heap, entry)
            log_terms.append(lws[a])
            picked.append(a)
            for q in members(a):
                if uncovered[q]:
                    uncovered[q] = False
                    left -= 1
                    for b in holders(q):
                        g = gains[b]
                        if g == 2:
                            multi -= 1
                        gains[b] = g - 1
        if left:
            # tail: every live atom holds one uncovered point, and each
            # point takes its cheapest atom (the least index on ties), in
            # point order
            for q in itertools.compress(range(npts), uncovered):
                a = min(holders(q), key=lambda b: (lws[b], b))
                log_terms.append(lws[a])
                picked.append(a)
        return log_sum_exp(log_terms), picked

    def _greedy_packing(self, balls, w_log):
        """Greedy separated set maximizing weights: each kept point p
        drops the points of its ball of radius 2 epsilon, computed only
        for the kept centres."""
        far = [True] * len(w_log)
        kept = []
        for i in _heaviest_first(w_log):
            if far[i]:
                kept.append(i)
                for q in balls.members(i):
                    far[q] = False
        return log_sum_exp([w_log[i] for i in kept]), len(kept)

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
            self.balls("all", self.epsilon), itertools.chain(*s))
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
        eps2 = 2 * self.epsilon
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
                w_log = list(map(min, zip(*s)))
            else:
                w_log = _side_weight(s, kind)
            log_sum, count = self._greedy_packing(
                self.balls(self._joint(kind), eps2), w_log)
        return CoverSolution(log_sum, count, METHOD_GRID,
                             "grid-certified greedy packing")

    def _mask_packing(self, balls, w_log):
        """Exhaustive separation: keep points whose some-word grid balls
        are pairwise disjoint."""
        taken = [False] * len(w_log)
        kept = []
        for i in _heaviest_first(w_log):
            ball = balls.members(i)
            if not any(taken[q] for q in ball):
                kept.append(i)
                for q in ball:
                    taken[q] = True
        return log_sum_exp([w_log[i] for i in kept]), len(kept)


def _heaviest_first(w_log):
    """Point indices by decreasing weight, the least index first on ties."""
    return sorted(range(len(w_log)), key=w_log.__getitem__, reverse=True)


def _side_weight(s, kind):
    """Per-point smallest sum over words for lower kinds, else largest."""
    return list(map(min if kind.endswith("lower") else max, zip(*s)))


def _log_mean_exp(s):
    """Per-point log of the mean over words of exp(S), the terms
    exp(S - max S) added left to right in word order."""
    out = []
    for sums in zip(*s):
        peak = max(sums)
        total = add_floats(math.exp(v - peak) for v in sums)
        out.append(peak + math.log(total / len(sums)))
    return out


@functools.lru_cache(maxsize=7)
def _grid_engine(system, n, epsilon, words=None):
    return _GridEngine(system, n, epsilon, words=words)


def _grid_engine_for(system, kind, n, epsilon, rule):
    """Full-word engine, or a single-word engine when only a trajectory
    query is asked and full enumeration is out of reach."""
    try:
        return _grid_engine(system, n, epsilon)
    except DepthTooLarge:
        if kind != "trajectory":
            raise
        return _grid_engine(system, n, epsilon, words=(rule.word_at(n),))
