"""Out-balls, growth series, and the growth-domination inequality with
explicit constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Sequence

from .core import (
    BlackBoxSemigroup,
    FiniteSemigroup,
    SubSemigroup,
    _check_count,
    _check_index,
    _first_witnesses,
    _generated,
    _generating,
)
from .errors import BudgetExceeded, HypothesisFails, InputError

DEFAULT_BUDGET = 1_000_000


class _Identity:
    """Sentinel for the adjoined identity of a black-box semigroup."""

    def __repr__(self):
        return "<1>"


IDENTITY = _Identity()

GrowthSeries = tuple[int, ...]


def _words(sem: FiniteSemigroup, gens) -> dict[int, tuple[int, ...]]:
    """The shortlex words of what the S^1 indices ``gens`` generate, the
    adjoined identity left out since it moves no ball (``OutOfRange`` for
    an index outside S^1)."""
    letters = [g for g in gens
               if _check_index(g, sem.order + 1, "generator") != sem.order]
    return _generated(sem, letters).words if letters else {}


def _series(words: dict, m_max: int) -> GrowthSeries:
    """Ball sizes around the adjoined identity for radii 0..m_max: the
    identity plus the elements whose shortlex word is that long or less."""
    counts = [1] + [0] * m_max
    for word in words.values():
        if len(word) <= m_max:
            counts[len(word)] += 1
    return tuple(accumulate(counts))


def _balls(sem: BlackBoxSemigroup, gens, start, budget: int):
    """Yield the ball around ``start`` for radii 0, 1, 2, ... from one BFS,
    each level extending the previous ball in place: a dict from canonical
    key to element, in discovery order."""
    if not isinstance(sem, BlackBoxSemigroup):
        raise InputError("unsupported semigroup kind")
    enc = sem.encode
    seen = {("id",) if start is IDENTITY else ("elt", enc(start)): start}
    frontier = [start]
    while True:
        yield seen
        new = []
        for x in frontier:
            for g in gens:
                p = g if x is IDENTITY else sem.multiply(x, g)
                key = ("elt", enc(p))
                if key not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(
                            f"more than {budget} distinct elements explored"
                        )
                    seen[key] = p
                    new.append(p)
        frontier = new


def out_ball(sem, gens, start, radius: int, budget: int = DEFAULT_BUDGET):
    """Elements reachable from ``start`` by right-multiplying at most
    ``radius`` factors from the generating set (identity factors allowed, so
    the ball contains ``start`` and grows monotonically).

    For a FiniteSemigroup the generators and ``start`` are S^1 indices
    (``OutOfRange`` otherwise) with ``order`` as the adjoined identity, and
    the result is a frozenset of S^1 indices: ``start`` and its products
    with the elements whose shortlex word has at most ``radius`` letters.
    For a BlackBoxSemigroup, ``start`` may be the IDENTITY sentinel,
    elements are deduplicated by canonical encoding, and the result is a
    tuple of distinct elements in discovery order; exploring more than
    ``budget`` of them raises BudgetExceeded.
    """
    _check_count(radius, "radius")
    if isinstance(sem, FiniteSemigroup):
        words = _words(sem, gens)
        _check_index(start, sem.order + 1, "start")
        return frozenset([start]).union(
            sem.mul1(start, x) for x, w in words.items() if len(w) <= radius)
    ball = next(islice(_balls(sem, gens, start, budget), radius, None))
    return tuple(ball.values())


def growth_function(sem, gens, m_max: int, budget: int = DEFAULT_BUDGET) -> GrowthSeries:
    """Ball sizes around the adjoined identity for radii 0..m_max: read off
    the shortlex word lengths for a FiniteSemigroup, off one BFS level by
    level for a BlackBoxSemigroup."""
    _check_count(m_max, "m_max")
    if isinstance(sem, FiniteSemigroup):
        return _series(_words(sem, gens), m_max)
    return tuple(
        len(ball) for ball in islice(_balls(sem, gens, IDENTITY, budget), m_max + 1)
    )


@dataclass(frozen=True)
class DominationReport:
    """Outcome of the growth-domination check g_S(n) <= k1 * g_T(k2 * n)."""

    k1: int
    k2: int
    r_set: tuple[int, ...]
    rows: tuple[tuple[int, int, int], ...]  # (n, g_S(n), k1 * g_T(k2 n))
    holds: bool


def domination_check(
    sem: FiniteSemigroup,
    sub: SubSemigroup,
    r_set: Sequence[int],
    b_gens: Sequence[int],
    m_max: int,
) -> DominationReport:
    """Check the growth comparison with constants built from a decomposition
    set R.

    Requires the adjoined identity in R and every S^1 element to factor as
    r * t with r in R and t in T^1.  The constants are k1 = |R| and k2 = the
    longest generator-length of the T^1 parts mu(a1, a2) in the chosen
    decompositions of products of generators from A = B u R.  B must
    generate T (NotGenerating otherwise; ``OutOfRange`` for an index that is
    not an element); a negative ``m_max`` or T of another S is an ``InputError``.
    """
    _check_count(m_max, "m_max")
    n = sub._checked_parent(sem).order
    over_b = _generating(sem, b_gens, sub.members, "T")
    for r in r_set:
        if isinstance(r, bool) or not isinstance(r, int):
            raise InputError(f"R element {r!r} is not an S^1 index")
    r_sorted = sorted(set(r_set))
    if n not in r_sorted:
        raise HypothesisFails("the adjoined identity must belong to R")
    for r in r_sorted:
        if not 0 <= r <= n:
            raise InputError(f"R element {r} is not an S^1 index")
    # the first (r, t) in R x T^1 order for each product r * t
    decomposition: dict[int, tuple[int, int]] = {}
    for r, firsts in zip(r_sorted, _first_witnesses(sem, sub, r_sorted)):
        for p, t in firsts.items():
            decomposition.setdefault(p, (r, t))
    for s in range(n + 1):
        if s not in decomposition:
            raise HypothesisFails(f"element {s} has no decomposition r * t")

    a_letters = sorted((set(b_gens) | set(r_sorted)) - {n})

    # a1 * a2 over A x A: the letters and their products, since n is in A
    products = set(a_letters)
    for a1 in a_letters:
        if len(products) == n:  # all of S: no row adds a product
            break
        products.update(map(sem.table[a1].__getitem__, a_letters))
    k1 = len(r_sorted)
    k2 = max([1] + [len(over_b.word(mu)) for mu in
                    {decomposition[p][1] for p in products} - {n}])
    g_s = _series(_generated(sem, a_letters).words, m_max)
    g_t = _series(over_b.words, k2 * m_max)
    rows = []
    holds = True
    for m in range(m_max + 1):
        bound = k1 * g_t[k2 * m]
        rows.append((m, g_s[m], bound))
        holds &= g_s[m] <= bound
    return DominationReport(
        k1=k1,
        k2=k2,
        r_set=tuple(r_sorted),
        rows=tuple(rows),
        holds=holds,
    )
