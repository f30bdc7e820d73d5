"""Monomial ideals as exponent vectors: minimization, membership,
intersection, and a disjoint standard-pair decomposition of the staircase
complement."""

from __future__ import annotations

from operator import le

from .errors import ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .records import Record

Monomial = tuple[int, ...]


def lcm_monomial(g: Monomial, h: Monomial) -> Monomial:
    return tuple(map(max, g, h))


def _minimal_antichain(gens) -> tuple[Monomial, ...]:
    """The sorted minimal elements under divisibility."""
    kept: list[Monomial] = []
    for g in sorted(set(gens), key=sum):
        for h in kept:
            if all(map(le, h, g)):
                break
        else:
            kept.append(g)
    kept.sort()
    return tuple(kept)


class MonomialIdeal(Record):
    """Monomial ideal given by its unique minimal generating antichain.

    No generators means the zero ideal; the single all-zero exponent
    vector means the unit ideal.
    """

    num_vars: int
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.num_vars:
                raise ValueError("generator arity does not match num_vars")
            if any(e < 0 for e in g):
                raise ValueError("exponents must be nonnegative")

    @classmethod
    def from_generators(cls, num_vars: int, gens) -> "MonomialIdeal":
        return cls(num_vars, _minimal_antichain(tuple(g) for g in gens))

    @classmethod
    def unit(cls, num_vars: int) -> "MonomialIdeal":
        return cls(num_vars, ((0,) * num_vars,))

    @property
    def is_unit(self) -> bool:
        return (0,) * self.num_vars in self.generators


class StandardPair(Record):
    """Cell root + Z_+ moves on free_vars, describing standard monomials.

    Cells produced by standard_pairs are pairwise disjoint; to achieve
    that, a root may carry a positive exponent on a free variable (the
    cell then starts above the axis).
    """

    root: Monomial
    free_vars: tuple[int, ...]


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise least common multiples."""
    if i.num_vars != j.num_vars:
        raise ValueError("ideals live in different variable counts")
    gens = [lcm_monomial(g, h) for g in i.generators for h in j.generators]
    return MonomialIdeal.from_generators(i.num_vars, gens)


def standard_pairs(ideal: MonomialIdeal, limits: Limits = DEFAULT_LIMITS) -> tuple[StandardPair, ...]:
    """Disjoint cells whose union is exactly the staircase complement.

    A worklist holds cells (generators, active variables, root), starting
    from the whole ideal.  A cell with generators takes the lexicographically
    first one, g, and its lowest support variable j, and splits on the
    exponent of x_j being k = 0, ..., g_j - 1 (slice k: x_j is fixed and the
    h with h_j <= k remain) or >= g_j (the shift: generators are shifted
    down in j).  Each split shrinks the active variables or the total
    generator degree.  An empty slice is a standard pair, and the shift is
    the unit ideal, with no standard monomials, exactly when g = g_j e_j;
    no slice is, as c e_j with c < g_j would precede g.  Both are settled
    where the split makes them.  Every cell counts one against max_pairs,
    a split's g_j + 1 at once, so the ceiling is met exactly when the total
    exceeds it, in any order; the pairs are sorted at the end, by root, as
    disjoint cells have distinct roots.
    """
    n = ideal.num_vars
    zero, whole = (0,) * n, (1 << n) - 1
    if zero in ideal.generators:
        return ()
    pairs = [] if ideal.generators else [(zero, whole)]
    cells = [(tuple(sorted(ideal.generators)), whole, zero)] if ideal.generators else []
    taken = 1
    while cells:
        gens, active, root = cells.pop()
        g = gens[0]
        j = next(v for v, e in enumerate(g) if e)
        gj = g[j]
        taken += gj + 1
        if taken > limits.max_pairs:
            raise ResourceLimitError("standard pair cells", limits.max_pairs)
        head, rj, tail = root[:j], root[j], root[j + 1:]
        fixed = active & ~(1 << j)
        for k in range(gj):
            sliced = [h[:j] + (0,) + h[j + 1:] for h in gens if h[j] <= k]
            if sliced:
                cells.append((_minimal_antichain(sliced), fixed, head + (rj + k,) + tail))
            else:
                pairs.append((head + (rj + k,) + tail, fixed))
        if sum(g) != gj:
            shifted = [h[:j] + (h[j] - gj if h[j] > gj else 0,) + h[j + 1:] for h in gens]
            cells.append((_minimal_antichain(shifted), active, head + (rj + gj,) + tail))
    pairs.sort()
    free = {mask: tuple(v for v in range(n) if mask >> v & 1) for mask in {m for _, m in pairs}}
    return tuple(StandardPair(root, free[mask]) for root, mask in pairs)
