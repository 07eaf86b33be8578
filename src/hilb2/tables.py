"""Abstract finite groups given by explicit multiplication tables.

A :class:`GroupTable` stores the full Cayley table over element indices
``0..n-1`` and validates every group axiom by exhaustion on construction.
The module also provides a small zoo of standard groups (cyclic groups,
direct products, symmetric groups, the order-8 quaternion group) and an
enumerator of all abelian groups up to a given order, which the covering
constructions sweep over.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
import itertools
import re

from .errors import NotAGroup

_SPEC_TOKEN = re.compile(r"^(Z|S|Q)(\d+)$")
_ADE_TOKEN = re.compile(r"^(A[1-9]\d*|D([4-9]|[1-9]\d+)|E[678])$")


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a full multiplication table.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``.
    Row order is the canonical element order used everywhere downstream.
    """

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.table)
        if n == 0:
            raise NotAGroup("a group has at least one element")
        for row in self.table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise NotAGroup("table is not square over valid element indices")
        for i in range(n):
            if len(set(self.table[i])) != n:
                raise NotAGroup(f"row {i} is not a bijection")
            if len({self.table[j][i] for j in range(n)}) != n:
                raise NotAGroup(f"column {i} is not a bijection")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise NotAGroup("no two-sided identity element")
        for a in range(n):
            if not any(self.table[a][b] == ident for b in range(n)):
                raise NotAGroup(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise NotAGroup(
                            f"associativity fails at ({a}, {b}, {c})"
                        )

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x for x in range(self.order)):
                return e
        raise NotAGroup("no identity element")  # unreachable after validation

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == self.identity:
                    inv[a] = b
                    break
        return tuple(inv)

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
        n = self.order
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(n) for b in range(a + 1, n)
        )

    def subgroup_closure(self, seed) -> tuple[int, ...]:
        """Closure of a set of element indices under multiplication."""
        members = {self.identity} | set(seed)
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for g in members.copy():
                for y in (self.table[x][g], self.table[g][x]):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return tuple(sorted(members))

    def small_generating_set(self) -> tuple[int, ...]:
        gens: list[int] = []
        sub = {self.identity}
        for x in range(self.order):
            if x not in sub:
                gens.append(x)
                sub = set(self.subgroup_closure(gens))
        return tuple(gens)

    def commutator_subgroup(self) -> tuple[int, ...]:
        """Element indices of the subgroup generated by all commutators."""
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
        for a in sub:
            for b in sub:
                if self.table[a][b] not in sub:
                    raise NotAGroup("subgroup indices are not closed")
        for g in range(self.order):
            gi = self.inv(g)
            for m in sub:
                if self.table[self.table[g][m]][gi] not in sub:
                    raise NotAGroup("subgroup is not normal in the table")
        if len(sub) == 1:
            # The cosets of the trivial subgroup are the elements themselves.
            return self, tuple(range(self.order))
        coset_of = [-1] * self.order
        reps = []
        for e in range(self.order):
            if coset_of[e] != -1:
                continue
            k = len(reps)
            reps.append(e)
            for m in sub:
                coset_of[self.table[e][m]] = k
        rows = tuple(
            tuple(coset_of[self.table[reps[i]][reps[j]]] for j in range(len(reps)))
            for i in range(len(reps))
        )
        return GroupTable(rows), tuple(coset_of)

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
    """Direct product of cyclic groups of the given orders."""
    factors = [cyclic_table(d) for d in invariants] or [cyclic_table(1)]
    return reduce(direct_product, factors)


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
    for parts in by_prime.values():
        parts.sort(reverse=True)
    length = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for k in range(length):
        d = 1
        for parts in by_prime.values():
            if k < len(parts):
                d *= parts[k]
        chain.append(d)
    chain.reverse()  # ascending, d1 | d2 | ... | dk
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


def group_from_spec(spec: str) -> tuple[str, GroupTable]:
    """Parse a group spec like ``Z4``, ``Z2xZ2``, ``S3`` or ``Q8``."""
    text = spec.replace(" ", "")
    if not text:
        raise ValueError("empty group spec")
    factors = []
    for token in text.split("x"):
        m = _SPEC_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse group spec token {token!r}")
        kind, n = m.group(1), int(m.group(2))
        if kind == "Z":
            if n < 1:
                raise ValueError("cyclic order must be positive")
            factors.append(cyclic_table(n))
        elif kind == "S":
            if not 1 <= n <= 5:
                raise ValueError("symmetric groups are supported for n=1..5")
            factors.append(symmetric_table(n))
        else:
            if n != 8:
                raise ValueError("only the order-8 quaternion group is supported")
            factors.append(quaternion_table())
    table = factors[0]
    for extra in factors[1:]:
        table = direct_product(table, extra)
    return text, table


def validate_ade(label: str) -> str:
    """Check that a singularity type is a valid ADE symbol (An, Dn, E6/7/8)."""
    if not _ADE_TOKEN.match(label):
        raise ValueError(f"not an ADE type: {label!r}")
    return label
