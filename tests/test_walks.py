"""The closure walk, the greedy-generator rule and the coset table shared by
every group representation (``tables._closure``, ``_greedy_generators`` and
``_coset_table``), checked against the per-representation loops they
replaced, kept here as reference copies."""
import itertools
from math import prod

import pytest

from hilb2 import fpgroup, permgroup
from hilb2.errors import CapExceeded, HomomorphismFailure
from hilb2.fpgroup import (
    AbelianInvariants,
    AbelianSubgroup,
    smith_invariant_factors,
    subgroups_of_abelian,
)
from hilb2.permgroup import Group, Permutation
from hilb2.tables import (
    GroupTable,
    _closure,
    abelian_group_tables,
    direct_product,
    quaternion_table,
    symmetric_table,
)


# --- reference copies -------------------------------------------------------

def reference_subgroup_closure(table: GroupTable, seed) -> tuple[int, ...]:
    """Closure under products with every member on both sides."""
    members = {table.identity} | set(seed)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in members.copy():
            for y in (table.table[x][g], table.table[g][x]):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return tuple(sorted(members))


def reference_table_generators(table: GroupTable) -> tuple[int, ...]:
    """The greedy rule stated through the reference closure."""
    gens: list[int] = []
    for x in range(table.order):
        if x not in reference_subgroup_closure(table, gens):
            gens.append(x)
    return tuple(gens)


def reference_quotient_by(table: GroupTable, sub):
    """The index-array coset loop of ``GroupTable.quotient_by``."""
    coset_of = [-1] * table.order
    reps = []
    for e in range(table.order):
        if coset_of[e] != -1:
            continue
        k = len(reps)
        reps.append(e)
        for m in sub:
            coset_of[table.table[e][m]] = k
    rows = tuple(
        tuple(coset_of[table.table[reps[i]][reps[j]]]
              for j in range(len(reps)))
        for i in range(len(reps))
    )
    return rows, tuple(coset_of)


def reference_small_generating_set(element_list, domain_size):
    """Greedy generators by a fresh ``generate`` for every new one."""
    gens: list[Permutation] = []
    sub = {Permutation.identity(domain_size)}
    for x in element_list:
        if x not in sub:
            gens.append(x)
            sub = permgroup.generate(gens, domain_size=domain_size,
                                     cap=max(len(element_list), 1)).elements
    return tuple(gens)


def reference_quotient_table(group: Group, normal_sub: Group):
    """The dictionary coset loop of ``permgroup.quotient_table``."""
    reps: list[Permutation] = []
    coset_of: dict[Permutation, int] = {}
    for e in group.element_list:
        if e in coset_of:
            continue
        k = len(reps)
        reps.append(e)
        for m in normal_sub.element_list:
            coset_of[e * m] = k
    size = len(reps)
    rows = tuple(
        tuple(coset_of[reps[i] * reps[j]] for j in range(size))
        for i in range(size)
    )
    return rows, coset_of, tuple(reps)


def reference_subgroups_of_abelian(moduli):
    """``subgroups_of_abelian`` with its own depth-first closure."""
    total = prod(moduli)
    zero = (0,) * len(moduli)

    def add(u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, moduli))

    def closure(gens) -> tuple:
        members = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return tuple(sorted(members))

    def factors(matrix) -> tuple[int, ...]:
        return tuple(d for d in smith_invariant_factors(matrix) if d > 1)

    out = []
    for basis, coords in fpgroup._hermite_bases(moduli):
        reduced = (tuple(v % m for v, m in zip(row, moduli)) for row in basis)
        gens = tuple(row for row in reduced if row != zero)
        elements = closure(gens)
        quotient = AbelianInvariants(rank=0, torsion=factors(basis))
        assert len(elements) * quotient.order == total
        out.append(AbelianSubgroup(
            ambient=moduli,
            elements=elements,
            generators=gens,
            invariants=factors(coords),
            quotient=quotient,
        ))
    out.sort(key=lambda s: (s.order, s.elements))
    return tuple(out)


# --- groups -----------------------------------------------------------------

def table_corpus():
    tables = [(name, table) for name, table in abelian_group_tables(24)]
    s3, q8 = symmetric_table(3), quaternion_table()
    return tables + [("S3", s3), ("S4", symmetric_table(4)), ("Q8", q8),
                     ("S3xQ8", direct_product(s3, q8))]


TABLES = table_corpus()


def realized(text):
    table = fpgroup.coset_enumeration(fpgroup.parse_presentation(text))
    return fpgroup.permutation_realization(table)


def permutation_corpus():
    s5 = permgroup.generate(
        (Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))))
    a5_z2 = realized("< a b c | a^2, b^3, a b a b a b a b a b, c^2, "
                     "a c a^-1 c^-1, b c b^-1 c^-1 >")
    d12 = realized("< r s | r^12, s^2, s r s r >")
    z2_5 = permgroup.generate(
        [Permutation.from_cycles(10, [(2 * i, 2 * i + 1)]) for i in range(5)])
    return {"S5": s5, "A5xZ2": a5_z2, "D12": d12, "Z2^5": z2_5}


GROUPS = permutation_corpus()


@pytest.fixture
def compositions(monkeypatch):
    """``compositions[0]`` counts ``Permutation.__mul__`` calls from here on."""
    count = [0]
    compose = Permutation.__mul__

    def counted(self, other):
        count[0] += 1
        return compose(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    return count


# --- tables -----------------------------------------------------------------

def seeds(order):
    """Every single element, and every pair on tables of order at most 12
    (consecutive pairs above that)."""
    yield from ([x] for x in range(order))
    if order <= 12:
        yield from itertools.combinations(range(order), 2)
    else:
        yield from ((x, (x + 1) % order) for x in range(order))


@pytest.mark.parametrize("name,table", TABLES, ids=[n for n, _ in TABLES])
def test_table_walks_match_the_reference_loops(name, table):
    assert table.small_generating_set() == reference_table_generators(table)
    for seed in seeds(table.order):
        assert table.subgroup_closure(seed) == \
            reference_subgroup_closure(table, seed), (name, seed)
    cyclic = {table.subgroup_closure([x]) for x in range(table.order)}
    normal = [sub for sub in cyclic | {table.commutator_subgroup()}
              if all(table.mul(table.mul(g, m), table.inv(g)) in sub
                     for g in range(table.order) for m in sub)]
    assert table.commutator_subgroup() in normal
    for sub in normal:
        quotient, coset_of = table.quotient_by(sub)
        if len(sub) > 1:
            assert (quotient.table, coset_of) == \
                reference_quotient_by(table, sub), (name, sub)


# --- permutations -----------------------------------------------------------

@pytest.mark.parametrize("name", list(GROUPS))
def test_permutation_walks_match_the_reference_loops(name):
    group = GROUPS[name]
    elements = group.element_list
    assert permgroup.small_generating_set(elements, group.domain_size) == \
        reference_small_generating_set(elements, group.domain_size)
    trivial = Group.trivial(group.domain_size)
    for sub in (trivial, permgroup.commutator_subgroup(group), group):
        table, coset_of, reps = permgroup.quotient_table(group, sub)
        assert (table.table, coset_of, reps) == \
            reference_quotient_table(group, sub), name


@pytest.mark.parametrize("name,count", [("S5", 566), ("Z2^5", 258),
                                        ("D12", 60)])
def test_greedy_generators_compose_as_before(name, count, compositions):
    group = GROUPS[name]
    elements, n = group.element_list, group.domain_size
    compositions[0] = 0
    gens = permgroup.small_generating_set(elements, n)
    assert compositions[0] == count
    compositions[0] = 0
    assert reference_small_generating_set(elements, n) == gens
    assert compositions[0] == count


def test_closure_cap_refuses_at_the_same_point():
    cycle = Permutation(tuple((x + 1) % 12 for x in range(12)))
    with pytest.raises(CapExceeded,
                       match="^group closure exceeded cap of 11 elements$"):
        permgroup.generate((cycle,), cap=11)
    assert permgroup.generate((cycle,), cap=12).order == 12
    members = _closure([0], (1,), lambda a, b: (a + b) % 12)
    assert members == list(range(12))
    with pytest.raises(CapExceeded):
        _closure([0], (1,), lambda a, b: (a + b) % 12, 11)


def test_certified_order_still_checked_through_the_shared_walk():
    cycle = Permutation(tuple((x + 1) % 12 for x in range(12)))
    for wrong in (6, 24):
        group = Group(12, (cycle,), wrong)
        with pytest.raises(HomomorphismFailure):
            group.elements


# --- exponent vectors -------------------------------------------------------

@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (2, 4, 8), (3, 9)], ids=str)
def test_abelian_subgroup_records_match_the_reference(moduli):
    assert subgroups_of_abelian(AbelianInvariants(0, moduli)) == \
        reference_subgroups_of_abelian(moduli)
