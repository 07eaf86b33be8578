"""Permutation and permutation-group layer, checked against hand values
and independent brute-force closures."""
import dataclasses
import itertools
import random
import re

import pytest

from hilb2 import fpgroup, permgroup
from hilb2.errors import CapExceeded, DomainMismatch, NotASubgroup
from hilb2.permgroup import Group, Permutation


def all_permutations(n):
    return {Permutation(images) for images in itertools.permutations(range(n))}


def brute_closure(gens, n):
    """Closure by repeated table-free multiplication; independent of
    generate()'s worklist strategy."""
    current = {Permutation.identity(n)} | set(gens)
    while True:
        extended = current | {a * b for a in current for b in current}
        if extended == current:
            return current
        current = extended


S3_GENS = (Permutation((1, 0, 2)), Permutation((1, 2, 0)))


def s3():
    return permgroup.generate(S3_GENS, domain_size=3)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))


def test_permutation_is_its_image_tuple():
    for images in ((0, 0, 1), (0, 1, 3), (-1, 0)):
        message = f"not a bijection of 0..{len(images) - 1}: {images!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Permutation(images)
    rng = random.Random(3)
    images = list(itertools.permutations(range(4)))
    shuffled = [Permutation(x) for x in rng.sample(images, len(images))]
    assert [tuple(p) for p in sorted(shuffled)] == images
    p = Permutation((1, 0, 2))
    assert repr(p) == "Permutation(images=(1, 0, 2))"
    assert repr(Permutation((0,))) == "Permutation(images=(0,))"
    assert repr(Permutation(())) == "Permutation(images=())"
    assert p.images is p and p == (1, 0, 2) and hash(p) == hash((1, 0, 2))
    assert type(p * p) is type(p.inverse()) is type(Permutation.identity(3)) \
        is Permutation
    assert not dataclasses.is_dataclass(Permutation)
    with pytest.raises(AttributeError):
        p.extra = 1


def test_composition_applies_rightmost_first():
    p = Permutation((1, 2, 0))
    q = Permutation((1, 0, 2))
    assert (p * q).images == (2, 1, 0)
    assert (q * p).images == (0, 2, 1)
    assert p * p.inverse() == Permutation.identity(3)
    with pytest.raises(DomainMismatch):
        p * Permutation((1, 0))
    rng = random.Random(7)
    for n in (0, 1, 2, 3, 300):
        for _ in range(5):
            a = Permutation(tuple(rng.sample(range(n), n)))
            b = Permutation(tuple(rng.sample(range(n), n)))
            assert (a * b).images == tuple(a(b(x)) for x in range(n))
        with pytest.raises(DomainMismatch):
            a * Permutation.identity(n + 1)
        with pytest.raises(DomainMismatch):
            Permutation.identity(n + 1) * a


def test_from_cycles_and_cycle_decomposition():
    p = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.images == (1, 2, 0, 4, 3)
    assert p.cycles() == ((0, 1, 2), (3, 4))
    assert p.order() == 6
    assert Permutation.identity(4).cycles() == ()
    assert not p.is_identity
    assert all(Permutation.identity(n).is_identity for n in range(5))


def test_generate_matches_brute_force_closure():
    for gens, n in [
        (S3_GENS, 3),
        ((Permutation((1, 2, 3, 0)),), 4),
        ((Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))), 4),
    ]:
        group = permgroup.generate(gens, domain_size=n)
        assert group.elements == brute_closure(gens, n)


def test_generate_full_symmetric_group():
    group = s3()
    assert group.order == 6
    assert group.elements == all_permutations(3)
    assert not group.is_abelian()
    assert sorted(group.element_list) == list(group.element_list)


def test_generate_empty_and_cap():
    trivial = permgroup.generate((), domain_size=5)
    assert trivial.order == 1
    with pytest.raises(CapExceeded):
        permgroup.generate(S3_GENS, domain_size=3, cap=5)


def test_group_membership_and_equality():
    group = s3()
    assert Permutation((2, 1, 0)) in group
    rebuilt = permgroup.group_from_elements(3, group.elements)
    assert rebuilt == group
    assert rebuilt.elements == brute_closure(rebuilt.generators, 3)


def test_small_generating_set_of_closed_list():
    z6 = permgroup.generate(
        (Permutation((1, 2, 3, 4, 5, 0)),), domain_size=6
    )
    gens = permgroup.small_generating_set(z6.element_list, 6)
    assert len(gens) == 1
    assert permgroup.generate(gens, domain_size=6).elements == z6.elements


def test_orbits_partition_and_labels():
    group = permgroup.generate(
        (Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))),
        domain_size=4,
    )
    assert permgroup.orbits(group) == ((0, 1), (2, 3))
    assert permgroup.orbits(group, "abcd") == (("a", "b"), ("c", "d"))
    with pytest.raises(DomainMismatch):
        permgroup.orbits(group, "abc")


def test_is_regular_on_hand_built_actions():
    square = (Permutation.from_cycles(4, [(0, 1, 2, 3)]),
              Permutation.from_cycles(4, [(1, 3)]))
    # Transitive on the 4 vertices, but |D4| = 8: the centralizer is only
    # {e, rotation by a half turn}.
    assert len(permgroup.orbits(square, domain_size=4)) == 1
    assert not permgroup.is_regular(square, 4)
    assert not permgroup.is_regular(S3_GENS, 3)
    assert permgroup.is_regular(square[:1], 4)
    klein = (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1)))
    assert permgroup.is_regular(klein, 4)
    assert not permgroup.is_regular(klein[:1], 4)
    assert permgroup.is_regular((), 1)


def test_is_regular_matches_closure():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        transitive = len(permgroup.orbits(gens, domain_size=n)) == 1
        order = len(permgroup.generate(gens, domain_size=n))
        assert permgroup.is_regular(gens, n) == (transitive and order == n)


def test_is_normal_in_symmetric_group():
    group = s3()
    a3 = permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    assert permgroup.is_normal(a3, group)
    assert not permgroup.is_normal(flip, group)
    with pytest.raises(DomainMismatch):
        permgroup.is_normal(
            permgroup.generate((Permutation((1, 2, 3, 0)),), domain_size=4),
            group,
        )
    with pytest.raises(NotASubgroup):
        permgroup.is_normal(group, a3)


def test_is_normal_matches_conjugation_by_every_element(compositions):
    s4 = permgroup.generate(
        (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))), domain_size=4
    )
    d4 = permgroup.generate(
        (Permutation((1, 2, 3, 0)), Permutation((0, 3, 2, 1))), domain_size=4
    )
    for group in (s4, d4):
        lattice = permgroup.subgroups(group)
        for big in lattice:
            for sub in lattice:
                if not sub.is_subgroup_of(big):
                    continue
                by_definition = all(
                    a * h * a.inverse() in sub
                    for a in big.element_list for h in sub.element_list
                )
                compositions.count = 0
                assert permgroup.is_normal(sub, big) == by_definition
                assert compositions.count <= \
                    2 * len(big.generators) * max(len(sub.generators), 1)


def test_normal_closure():
    group = s3()
    transposition = Permutation((1, 0, 2))
    three_cycle = Permutation((1, 2, 0))
    assert permgroup.normal_closure(group, (transposition,)).order == 6
    assert permgroup.normal_closure(group, (three_cycle,)).order == 3
    assert permgroup.normal_closure(group, ()).order == 1


def test_core_is_largest_normal_part():
    group = s3()
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    a3 = permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)
    assert permgroup.core(group, flip).order == 1
    assert permgroup.core(group, a3) == a3
    assert permgroup.core(group, group) == group


def test_normalizer():
    group = s3()
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    a3 = permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)
    assert permgroup.normalizer(group, flip) == flip
    assert permgroup.normalizer(group, a3) == group


def test_subgroups_of_small_groups():
    assert [g.order for g in permgroup.subgroups(s3())] == [1, 2, 2, 2, 3, 6]
    z4 = permgroup.generate((Permutation((1, 2, 3, 0)),), domain_size=4)
    assert [g.order for g in permgroup.subgroups(z4)] == [1, 2, 4]
    v4 = permgroup.generate(
        (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))),
        domain_size=4,
    )
    assert [g.order for g in permgroup.subgroups(v4)] == [1, 2, 2, 2, 4]
    with pytest.raises(CapExceeded):
        permgroup.subgroups(s3(), cap=5)


def test_commutator_subgroup_values():
    derived = permgroup.commutator_subgroup(s3())
    assert derived.order == 3
    assert permgroup.is_normal(derived, s3())
    v4 = permgroup.generate(
        (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))),
        domain_size=4,
    )
    assert permgroup.commutator_subgroup(v4).order == 1


def test_commutator_subgroup_closes_the_commutator_set():
    # The commutators of this order-6 group are two 3-cycles whose closure
    # has order 3; the closure step must not be capped by the raw
    # commutator count.
    derived = permgroup.commutator_subgroup(s3())
    commutators = {
        a * b * a.inverse() * b.inverse()
        for a in s3().element_list for b in s3().element_list
    }
    assert derived.elements == brute_closure(sorted(commutators), 3)


def all_pairs_commutator_subgroup(group):
    """The derived subgroup as it was computed before normal closures:
    close the commutators of every ordered pair of elements."""
    comms = set()
    inverses = {a: a.inverse() for a in group.element_list}
    for a in group.element_list:
        for b in group.element_list:
            comms.add(a * b * inverses[a] * inverses[b])
    comms.discard(group.identity)
    if not comms:
        return Group.trivial(group.domain_size)
    closure = permgroup.generate(
        sorted(comms), domain_size=group.domain_size, cap=group.order
    )
    return permgroup.group_from_elements(group.domain_size, closure.elements)


def realized(text):
    table = fpgroup.coset_enumeration(fpgroup.parse_presentation(text))
    return fpgroup.permutation_realization(table)


def test_commutator_subgroup_matches_all_pairs_closure():
    s4 = permgroup.generate(
        (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))), domain_size=4
    )
    d4 = permgroup.generate(
        (Permutation((1, 2, 3, 0)), Permutation((0, 3, 2, 1))), domain_size=4
    )
    s3_squared = permgroup.generate(
        (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 0, 3, 4, 5)),
         Permutation((0, 1, 2, 4, 3, 5)), Permutation((0, 1, 2, 4, 5, 3))),
        domain_size=6,
    )
    z2_z4 = permgroup.generate(
        (Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 4, 5, 2))),
        domain_size=6,
    )
    groups = {
        "S3": (s3(), 3), "S4": (s4, 12), "D4": (d4, 2),
        "Q8": (realized("< a b | a^4, a^2 b^-2, b^-1 a b a >"), 2),
        "A5": (realized("< a b | a^2, b^3, a b a b a b a b a b >"), 60),
        "S3xS3": (s3_squared, 9), "Z2xZ4": (z2_z4, 1),
    }
    for name, (group, order) in groups.items():
        derived = permgroup.commutator_subgroup(group)
        oracle = all_pairs_commutator_subgroup(group)
        assert derived.order == order, name
        assert derived.element_list == oracle.element_list, name
        assert derived.generators == oracle.generators, name
        assert permgroup.is_normal(derived, group), name


def test_commutator_subgroup_composes_at_generator_cost(compositions):
    group = realized(
        "< a b c | a^2, b^3, a b a b a b a b a b, c^2, a c a^-1 c^-1, "
        "b c b^-1 c^-1 >"
    )
    compositions.count = 0
    assert permgroup.commutator_subgroup(group).order == 60
    # The all-pairs closure composed about 47,000 times.
    assert compositions.count <= 1000


def test_generate_skips_identity_generators(compositions):
    cycle = Permutation(tuple((x + 1) % 12 for x in range(12)))
    group = permgroup.generate((Permutation.identity(12), cycle))
    assert compositions.count == 12
    assert group.order == 12
    assert group.generators == (cycle,)


def test_quotient_table():
    group = s3()
    a3 = permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)
    table, coset_of, reps = permgroup.quotient_table(group, a3)
    assert table.order == 2
    assert len(reps) == 2
    assert sorted(set(coset_of.values())) == [0, 1]
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    with pytest.raises(NotASubgroup):
        permgroup.quotient_table(group, flip)


def test_quotient_table_checks_the_subgroup_once(monkeypatch):
    checks = []
    require = permgroup._require_subgroup

    def counted(sub, group):
        checks.append((sub, group))
        return require(sub, group)

    monkeypatch.setattr(permgroup, "_require_subgroup", counted)
    group = s3()
    a3 = permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)
    assert permgroup.quotient_table(group, a3)[0].order == 2
    assert len(checks) == 1
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    with pytest.raises(NotASubgroup, match="normal subgroup"):
        permgroup.quotient_table(group, flip)
    assert len(checks) == 2
    with pytest.raises(NotASubgroup, match="does not contain"):
        permgroup.quotient_table(a3, group)


def test_abelian_invariants_of_permutation_groups():
    z6 = permgroup.generate(
        (Permutation((1, 2, 3, 4, 5, 0)),), domain_size=6
    )
    assert permgroup.abelian_invariants(z6) == (6,)
    v4 = permgroup.generate(
        (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))),
        domain_size=4,
    )
    assert permgroup.abelian_invariants(v4) == (2, 2)
    assert permgroup.abelian_invariants(Group.trivial(3)) == ()
