"""Abstract finite groups given by explicit multiplication tables.

A :class:`GroupTable` stores the full Cayley table over element indices
``0..n-1`` and validates every group axiom on construction: closure,
bijective rows and columns, identity and inverses by exhaustion, and
associativity by Light's test on a generating set.
The module also provides a small zoo of standard groups (cyclic groups,
direct products, symmetric groups, the order-8 quaternion group) and an
enumerator of all abelian groups up to a given order, which the covering
constructions sweep over.  Its private walks (closure by right
multiplication, greedy generators, the coset table of a normal subgroup)
take right-multiplication maps x -> x·g as arguments, so permutations and
exponent vectors share them with table indices; a table's map is a column
lookup and a permutation's an ``operator.itemgetter``, so neither walk
runs a Python frame per product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
import itertools
import math
from operator import itemgetter
import re

from .errors import CapExceeded, NotAGroup

_SPEC_TOKEN = re.compile(r"^(Z|S|Q)(\d+)$")
_ADE_TOKEN = re.compile(r"^(A[1-9]\d*|D([4-9]|[1-9]\d+)|E[678])$")


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a full multiplication table.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``.
    Row order is the canonical element order used everywhere downstream.
    ``columns[j]`` is column ``j``, so ``columns[j][i]`` is i·j.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int = field(init=False, repr=False, compare=False)
    columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self) -> None:
        """Check the axioms Light's test needs, a row or column per C-level
        pass: entries in range, every row i and then column i a bijection
        (the first failing i is named, its row before its column), a
        two-sided identity (the first e whose row and column are the
        identity arrangement) and an inverse for every element."""
        table = self.table
        n = len(table)
        if n == 0:
            raise NotAGroup("a group has at least one element")
        if (set(map(len, table)) != {n}
                or min(map(min, table)) < 0 or max(map(max, table)) >= n):
            raise NotAGroup("table is not square over valid element indices")
        columns = tuple(zip(*table))
        row_sizes = list(map(len, map(set, table)))
        column_sizes = list(map(len, map(set, columns)))
        if row_sizes.count(n) + column_sizes.count(n) != 2 * n:
            for i in range(n):
                if row_sizes[i] != n:
                    raise NotAGroup(f"row {i} is not a bijection")
                if column_sizes[i] != n:
                    raise NotAGroup(f"column {i} is not a bijection")
        arrangement = tuple(range(n))
        ident = next((e for e in range(n) if tuple(table[e]) == arrangement
                      and columns[e] == arrangement), None)
        if ident is None:
            raise NotAGroup("no two-sided identity element")
        for a, row in enumerate(table):
            if ident not in row:
                raise NotAGroup(f"element {a} has no inverse")
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "columns", columns)
        self._check_associative()

    def _check_associative(self) -> None:
        """Light's associativity test, at O(n²·|gens|) instead of n³.

        Let S be the set of b with (x·b)·y = x·(b·y) for all x, y.  S is
        closed under products: for a, b in S,
        (x·(a·b))·y = ((x·a)·b)·y = (x·a)·(b·y) = x·(a·(b·y)) = x·((a·b)·y),
        using a, b, a and again b (at x = a) in S in turn.  Every element
        is a product of the greedy generators (see
        :meth:`small_generating_set`, which needs only the checks before
        this one), so once each generator is checked to lie in S, S is the
        whole table (Clifford & Preston, *The Algebraic Theory of
        Semigroups* I, 1961, §1.2).  Each generator g is checked with one
        ``itemgetter`` of g's row, which picks x·(g·y) for every y out of
        row x.
        """
        table = self.table
        # The one-element table has no generators, so no itemgetter here
        # gets the single index for which it would return a bare item.
        for g in self.small_generating_set():
            pick = itemgetter(*table[g])
            for x, row in enumerate(table):
                left = table[row[g]]  # (x·g)·y for every y
                right = pick(row)  # x·(g·y)
                if left != right:
                    y = next(y for y, v in enumerate(left) if v != right[y])
                    raise NotAGroup(f"associativity fails at ({x}, {g}, {y})")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _right_multiplication(self, g: int):
        """The map x -> x·g, a lookup in column g."""
        return self.columns[g].__getitem__

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(self.identity) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        return list(map(tuple, self.table)) == list(zip(*self.table))

    def subgroup_closure(self, seed) -> tuple[int, ...]:
        """Closure of a set of element indices under multiplication."""
        steps = list(map(self._right_multiplication, seed))
        return tuple(sorted(_closure([self.identity], steps)))

    def small_generating_set(self) -> tuple[int, ...]:
        """Greedy generators: each the smallest element not yet reached.

        Elements are reached from the identity by right-multiplying by the
        generators chosen so far, until every element is reached, so every
        element is a product of generators.  This reads only rows, so it is
        sound on a table not yet known to be associative.  Computed once
        per table.
        """
        return self._small_generating_set

    @cached_property
    def _small_generating_set(self) -> tuple[int, ...]:
        """:func:`_greedy_generators` over this table, reading its rows:
        member m reaches row m at each generator."""
        table = self.table
        gens: list[int] = []
        members = [self.identity]
        reached = set(members)
        for x in range(self.order):
            if x in reached:
                continue
            gens.append(x)
            # The members so far are closed under the earlier generators,
            # so they meet x alone; every member reached from here on
            # meets all of them.
            start = len(members)
            for m in members[:start]:
                y = table[m][x]
                if y not in reached:
                    reached.add(y)
                    members.append(y)
            for m in itertools.islice(members, start, None):
                row = table[m]
                for g in gens:
                    y = row[g]
                    if y not in reached:
                        reached.add(y)
                        members.append(y)
        return tuple(gens)

    def commutator_subgroup(self) -> tuple[int, ...]:
        """Element indices of the subgroup generated by all commutators."""
        if self.is_abelian:
            return (self.identity,)
        commutators = {
            self.table[self.table[self.inv(a)][self.inv(b)]][self.table[a][b]]
            for a in range(self.order) for b in range(self.order)
        }
        return self.subgroup_closure(commutators)

    def abelianized_invariants(self) -> tuple[int, ...]:
        """Invariant factors of this group modulo its commutator subgroup."""
        quotient, _ = self.quotient_by(self.commutator_subgroup())
        return quotient.abelian_invariants()

    def quotient_by(self, subgroup) -> tuple["GroupTable", tuple[int, ...]]:
        """Quotient table by a normal subgroup (given as element indices).

        Returns the quotient table and the coset index of every element;
        the quotient by the trivial subgroup is this table itself.
        Raises :class:`NotAGroup` if the set is not a normal subgroup.
        """
        sub = set(subgroup)
        if self.identity not in sub:
            raise NotAGroup("a subgroup contains the identity")
        if len(sub) == 1:
            # {e} is closed and normal by the identity and inverse axioms,
            # and its cosets are the elements themselves.
            return self, tuple(range(self.order))
        for a in sub:
            for b in sub:
                if self.table[a][b] not in sub:
                    raise NotAGroup("subgroup indices are not closed")
        for g in range(self.order):
            gi = self.inv(g)
            for m in sub:
                if self.table[self.table[g][m]][gi] not in sub:
                    raise NotAGroup("subgroup is not normal in the table")
        quotient, coset_of, _ = _coset_table(range(self.order), sub,
                                             self._right_multiplication)
        return quotient, tuple(coset_of[e] for e in range(self.order))

    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors d1 | d2 | ... of a finite abelian group.

        Uses the classical structure argument: a cyclic subgroup generated
        by an element of maximal order is a direct summand, so its order is
        the last invariant factor and the rest recurse on the quotient.
        """
        if not self.is_abelian:
            raise NotAGroup("invariant factors are defined for abelian groups")
        if self.order == 1:
            return ()
        best = max(range(self.order), key=self.order_of)
        exponent = self.order_of(best)
        cyclic = self.subgroup_closure([best])
        quotient, _ = self.quotient_by(cyclic)
        return quotient.abelian_invariants() + (exponent,)


def _closure(members: list, steps, cap: int | None = None) -> list:
    """Extend ``members``, a list holding the identity, to everything its
    elements reach by the right-multiplication maps ``steps`` (x -> x·g,
    one per generator g), in the order reached; in a finite group that is
    the subgroup the generators generate.  Raises :class:`CapExceeded`
    once the list would pass ``cap`` elements."""
    seen = set(members)
    for x in members:  # the loop also visits the elements appended below
        for step in steps:
            y = step(x)
            if y not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceeded(
                        f"group closure exceeded cap of {cap} elements"
                    )
                seen.add(y)
                members.append(y)
    return members


def _greedy_generators(elements, identity, right) -> tuple:
    """Greedy generators of a closed element list: each is the first
    element not reached from ``identity`` by the ones chosen before it.
    ``right(g)`` is the right-multiplication map x -> x·g."""
    gens: list = []
    steps: list = []
    members = [identity]
    reached = {identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            steps.append(right(x))
            known = len(members)
            reached.update(_closure(members, steps)[known:])
    return tuple(gens)


def _number_cosets(elements, sub, right) -> tuple[dict, list]:
    """The coset index of every element and the coset representatives,
    for the cosets ``sub``·e = {m·e : m in ``sub``}, each read as the map
    ``right(e)`` over ``sub``; for a normal ``sub`` they are the cosets
    e·``sub`` too.  Cosets are numbered by the first of ``elements`` in
    each, which is its representative."""
    coset_of: dict = {}
    reps: list = []
    for e in elements:
        if e not in coset_of:
            coset = map(right(e), sub)
            coset_of.update(zip(coset, itertools.repeat(len(reps))))
            reps.append(e)
    return coset_of, reps


def _coset_table(elements, sub, right) -> tuple[GroupTable, dict, list]:
    """Multiplication table of the cosets of a normal subgroup ``sub``,
    with the numbering of :func:`_number_cosets`; column b holds the
    cosets of a·b, the map ``right(b)`` over the representatives a."""
    coset_of, reps = _number_cosets(elements, sub, right)
    columns = [tuple(map(coset_of.__getitem__, map(right(b), reps)))
               for b in reps]
    return GroupTable(tuple(zip(*columns))), coset_of, reps


def cyclic_table(n: int) -> GroupTable:
    if n < 1:
        raise NotAGroup("cyclic groups have positive order")
    return GroupTable(tuple(
        tuple((i + j) % n for j in range(n)) for i in range(n)
    ))


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Direct product with lexicographic element indexing ``(i, j)``."""
    nb = b.order
    def pack(i: int, j: int) -> int:
        return i * nb + j
    rows = []
    for i1 in range(a.order):
        for j1 in range(nb):
            rows.append(tuple(
                pack(a.mul(i1, i2), b.mul(j1, j2))
                for i2 in range(a.order) for j2 in range(nb)
            ))
    return GroupTable(tuple(rows))


def symmetric_table(n: int) -> GroupTable:
    """Symmetric group on n letters; elements sorted by image tuple.

    The product convention matches permutation composition elsewhere in the
    package: entry (i, j) is "apply j first, then i".
    """
    elements = sorted(itertools.permutations(range(n)))
    index = {e: k for k, e in enumerate(elements)}
    rows = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in elements)
        for p in elements
    )
    return GroupTable(rows)


def quaternion_table() -> GroupTable:
    """The quaternion group of order 8: {1, -1, i, -i, j, -j, k, -k}."""
    units = "1ijk"
    mult = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    def pack(sign: int, unit: str) -> int:
        return units.index(unit) * 2 + (0 if sign == 1 else 1)
    rows = []
    for u1 in units:
        for s1 in (1, -1):
            row = []
            for u2 in units:
                for s2 in (1, -1):
                    s3, u3 = mult[(u1, u2)]
                    row.append(pack(s1 * s2 * s3, u3))
            rows.append(tuple(row))
    return GroupTable(tuple(rows))


def abelian_table(invariants) -> GroupTable:
    """Direct product of cyclic groups of the given orders.

    Element (a1, ..., ak) has the mixed-radix index
    (...(a1 d2 + a2) d3 + ...) dk + ak, the first factor most significant,
    which is the indexing ``reduce(direct_product, cyclic tables)`` gives.
    The rows are built factor by factor from the last, and only the
    product is validated: once the rows of the elements below the weight
    w of a factor are known, the row of x + w is the row of x followed by
    adding that factor's unit, a permutation of the indices.  The group is
    abelian, so that row is also the row of x read at each index plus the
    unit, and each row is one pass of one ``itemgetter`` per factor.
    """
    invariants = tuple(invariants)
    if min(invariants, default=1) < 1:
        raise NotAGroup("cyclic groups have positive order")
    n = math.prod(invariants)
    elements = tuple(range(n))
    rows = [elements]
    weight = 1
    for d in reversed(invariants):
        span = d * weight
        # This factor's unit raises its digit by one, from d - 1 back to 0.
        unit = tuple(itertools.chain.from_iterable(
            elements[b + weight:b + span] + elements[b:b + weight]
            for b in range(0, n, span)
        ))
        # Only a factor with d > 1 reads it, and then n >= 2: itemgetter
        # returns a bare item for one index.
        shift = itemgetter(*unit)
        for _ in range(d - 1):
            rows.extend(map(shift, rows[-weight:]))
        weight = span
    return GroupTable(tuple(rows))


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))
    rec(n, n, ())
    return out


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def invariant_factors_from_primary(primary) -> tuple[int, ...]:
    """Combine prime-power cyclic orders into an invariant factor chain."""
    by_prime: dict[int, list[int]] = {}
    for q in primary:
        [(p, e)] = _prime_factorization(q)
        by_prime.setdefault(p, []).append(p ** e)
    return _invariant_chain(by_prime.values())


def _invariant_chain(parts_by_prime) -> tuple[int, ...]:
    """The invariant factor chain d1 | d2 | ... (ascending) of a product of
    cyclic groups of prime-power orders, given as one list per prime: the
    t-th factor from the top multiplies every prime's t-th largest part."""
    chain: list[int] = []
    for parts in parts_by_prime:
        for t, part in enumerate(sorted(parts, reverse=True)):
            if t < len(chain):
                chain[t] *= part
            else:
                chain.append(part)
    chain.reverse()
    return tuple(chain)


def abelian_group_tables(max_order: int) -> list[tuple[str, GroupTable]]:
    """All abelian groups of order 1..max_order, one per isomorphism class.

    Named by invariant factors, largest first, e.g. ``Z4xZ2``.
    """
    out: list[tuple[str, GroupTable]] = []
    for order in range(1, max_order + 1):
        if order == 1:
            out.append(("Z1", cyclic_table(1)))
            continue
        per_prime = [
            [tuple(p ** part for part in partition)
             for partition in _partitions(e)]
            for p, e in _prime_factorization(order)
        ]
        for combo in itertools.product(*per_prime):
            primary = [q for group in combo for q in group]
            chain = invariant_factors_from_primary(primary)
            name = "x".join(f"Z{d}" for d in reversed(chain))
            out.append((name, abelian_table(chain)))
    return out


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group spec: its name and its factors, each ``(kind, n)``
    with kind ``Z``, ``S`` or ``Q``.  Order and abelianness are read off
    the factors, so callers can refuse a spec before :meth:`table` builds
    its multiplication table."""

    name: str
    factors: tuple[tuple[str, int], ...]

    @property
    def order(self) -> int:
        return math.prod(math.factorial(n) if kind == "S" else n
                         for kind, n in self.factors)

    @property
    def is_abelian(self) -> bool:
        return all(kind == "Z" or (kind == "S" and n <= 2)
                   for kind, n in self.factors)

    def table(self) -> GroupTable:
        """The product table, factors in spec order, the first most
        significant; an all-cyclic spec is one :func:`abelian_table`."""
        if all(kind == "Z" for kind, _ in self.factors):
            return abelian_table(n for _, n in self.factors)
        return reduce(direct_product, [
            cyclic_table(n) if kind == "Z"
            else symmetric_table(n) if kind == "S"
            else quaternion_table()
            for kind, n in self.factors
        ])


def parse_group_spec(spec: str) -> GroupSpec:
    """Parse a group spec like ``Z4``, ``Z2xZ2``, ``S3`` or ``Q8``, checking
    every token before any table is built."""
    text = spec.replace(" ", "")
    if not text:
        raise ValueError("empty group spec")
    factors = []
    for token in text.split("x"):
        m = _SPEC_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse group spec token {token!r}")
        kind, n = m.group(1), int(m.group(2))
        if kind == "Z" and n < 1:
            raise ValueError("cyclic order must be positive")
        if kind == "S" and not 1 <= n <= 5:
            raise ValueError("symmetric groups are supported for n=1..5")
        if kind == "Q" and n != 8:
            raise ValueError("only the order-8 quaternion group is supported")
        factors.append((kind, n))
    return GroupSpec(text, tuple(factors))


def group_from_spec(spec: str) -> tuple[str, GroupTable]:
    """Parse a group spec (see :func:`parse_group_spec`) and build its
    table."""
    parsed = parse_group_spec(spec)
    return parsed.name, parsed.table()


def validate_ade(label: str) -> str:
    """Check that a singularity type is a valid ADE symbol (An, Dn, E6/7/8)."""
    if not _ADE_TOKEN.match(label):
        raise ValueError(f"not an ADE type: {label!r}")
    return label
