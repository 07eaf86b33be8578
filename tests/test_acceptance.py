"""Exact acceptance checks for the whole pipeline.

Each test is one structural law, checked with zero tolerance over an
exhaustive sweep, and finishes inside an explicit wall-clock budget.
"""
import math
import time

import pytest

from hilb2 import permgroup
from hilb2.catalog import get_surface, surface_names
from hilb2.errors import CapExceeded
from hilb2.fpgroup import (
    abelianization,
    coset_enumeration,
    parse_presentation,
    permutation_realization,
    subgroups_of_abelian,
)
from hilb2.hilbcover import (
    build_construction,
    fixed_components,
    free_gset,
)
from hilb2.hodge import isv_pattern_check, isv_surface_check, symmetric_square_hodge
from hilb2.monodromy import (
    classify_hilb_covers,
    cover_from_subgroup,
    galois_closure,
    wreath_quotient_check,
)
from hilb2.permgroup import Permutation
from hilb2.tables import (
    abelian_group_tables,
    abelian_table,
    group_from_spec,
    quaternion_table,
    symmetric_table,
)

MAX_ABELIAN_ORDER = 12
BASE_SIZES = (1, 2, 3)

_SWEEP: dict = {}


def sweep():
    """All squared constructions for abelian groups of order <= 12 over
    one-, two-, and three-point bases, built once and shared."""
    if not _SWEEP:
        for name, table in abelian_group_tables(MAX_ABELIAN_ORDER):
            for b in BASE_SIZES:
                labels = tuple(f"b{i}" for i in range(b))
                _SWEEP[(name, b)] = build_construction(free_gset(table, labels))
    return _SWEEP


def regular_model(table):
    mul = table.mul
    gens = tuple(
        Permutation(tuple(mul(g, x) for x in range(table.order)))
        for g in table.small_generating_set()
    )
    return permgroup.generate(gens, domain_size=max(table.order, 1))


def test_fiber_cardinality_laws():
    """Big fibers have size exactly 2d^2 off the diagonal and d^2 on it,
    and every fiber splits into exactly |G| intermediate orbits.  < 2 s."""
    start = time.monotonic()
    for (name, b), c in sweep().items():
        d = c.d
        for i, point in enumerate(c.sym.points):
            want = d * d if point.is_diagonal else 2 * d * d
            assert len(c.sym_fibers[i]) == want, (name, b, point.label)
            assert len(c.antidiagonal_orbit_fibers[i]) == d, \
                (name, b, point.label)
    assert time.monotonic() - start < 2.0


def sign(x, n):
    """-1 if x exchanges the two copies of Z ⊔ Z, 1 if it keeps them."""
    return 1 if set(x.images[:n]) == set(range(n)) else -1


def test_group_orders_and_sign_splitting():
    """|pair group| = 2d^2 and |intermediate group| = 2d with the latter
    normal; the sign, whether an element exchanges the two copies of the
    sheets, splits: its kernel, the copy-keeping half, has order d^2, and
    the swap exchanges the copies and squares to the identity.  The
    swap-plus-diagonal subgroup also has order 2d but fails normality for
    the order-6 nonabelian group.  < 2 s."""
    start = time.monotonic()
    for (name, b), c in sweep().items():
        d, n = c.d, c.gset.size
        assert len(c.pair_group) == 2 * d * d, (name, b)
        assert len(c.antidiagonal_group) == 2 * d, (name, b)
        assert permgroup.is_normal(c.antidiagonal_group, c.pair_group), \
            (name, b)
        assert sum(sign(x, n) == 1 for x in c.pair_group) == d * d, (name, b)
        assert sign(c.swap, n) == -1, (name, b)
        assert (c.swap * c.swap).is_identity, (name, b)
    nonabelian = build_construction(free_gset(symmetric_table(3), ("b0",)))
    assert len(nonabelian.diagonal_group) == 2 * nonabelian.d
    assert not permgroup.is_normal(
        nonabelian.diagonal_group, nonabelian.pair_group
    )
    assert time.monotonic() - start < 2.0


def test_diagonal_component_structure():
    """The doubled locus upstairs is exactly |G| disjoint copies of the
    sheet space, and the pointwise-fixed copies are exactly those indexed
    by elements that square to the identity.  < 2 s."""
    start = time.monotonic()
    for (name, b), c in sweep().items():
        table = c.gset.group
        copies = c.diagonal_copies
        assert len(copies) == c.d, (name, b)
        seen: set = set()
        for block in copies:
            assert len(block) == c.gset.size, (name, b)
            assert not (set(block) & seen), (name, b)
            seen.update(block)
        involutions = frozenset(
            g for g in range(c.d) if table.mul(g, g) == table.identity
        )
        assert fixed_components(c) == involutions, (name, b)
    assert time.monotonic() - start < 2.0


def test_wreath_kernel_is_abelianization():
    """Killing the transposition lifts in the wreath product Q wr S_n, on
    n copies of Q, leaves an abelian quotient of order exactly |Q^ab|, with the
    twisted-difference vectors inside the kernel; |Q^ab| is recomputed
    through an independent permutation-model commutator quotient.  < 2 s."""
    start = time.monotonic()
    cells = [
        (spec, n)
        for spec in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "Q8")
        for n in (2, 3)
    ]
    for spec, n in cells:
        _, q_table = group_from_spec(spec)
        if q_table.order ** n * math.factorial(n) > 20000:
            continue
        report = wreath_quotient_check(q_table, n)
        model = regular_model(q_table)
        commutator = permgroup.commutator_subgroup(model)
        quotient, _, _ = permgroup.quotient_table(model, commutator)
        independent_qab = quotient.abelian_invariants()
        assert report.ok, (spec, n)
        assert report.k_vectors_in_closure, (spec, n)
        assert report.quotient_abelian, (spec, n)
        assert report.quotient_invariants == independent_qab, (spec, n)
        expected_order = 1
        for factor in independent_qab:
            expected_order *= factor
        assert report.wreath_order == \
            report.lift_closure_order * expected_order, (spec, n)
    assert time.monotonic() - start < 2.0


def test_classification_counts():
    """Each catalog surface produces one Hilbert-square cover per subgroup
    of the abelianized fundamental group, with the count recomputed by
    generic subgroup enumeration on a regular permutation model; the
    quaternion entry yields exactly 5.  < 0.5 s."""
    start = time.monotonic()
    for name in surface_names():
        surface = get_surface(name)
        invariants = abelianization(surface.pi1_smooth)
        assert invariants.rank == 0, name
        covers = classify_hilb_covers(surface)
        model = regular_model(abelian_table(invariants.torsion))
        independent = len(permgroup.subgroups(model))
        assert len(covers) == independent, name
        assert len(covers) == len(subgroups_of_abelian(invariants)), name
    assert len(classify_hilb_covers(get_surface("quaternion"))) == 5
    assert time.monotonic() - start < 0.5


def test_abelianization_oracle_agreement():
    """For every catalog presentation whose coset enumeration terminates at
    index <= 200, the Smith-normal-form abelianization equals the
    brute-force commutator quotient of the permutation realization.
    < 0.05 s."""
    start = time.monotonic()
    for name in surface_names():
        presentation = get_surface(name).pi1_smooth
        table = coset_enumeration(presentation, ())
        assert table.index <= 200, name
        realization = permutation_realization(table)
        commutator = permgroup.commutator_subgroup(realization)
        quotient, _, _ = permgroup.quotient_table(realization, commutator)
        brute = quotient.abelian_invariants()
        invariants = abelianization(presentation)
        assert invariants.rank == 0, name
        assert invariants.torsion == brute, name
    assert time.monotonic() - start < 0.05


def _squared_dimension_by_trace(h, p):
    """+1-eigenspace dimension of the signed swap on the degree-p part of
    the square: (dimension + trace) / 2, with fixed basis vectors (i,a)x(i,a)
    contributing sign (-1)^(i*i)."""
    dimension = sum(
        h[i] * h[p - i] for i in range(3) if 0 <= p - i <= 2
    )
    trace = 0
    if p % 2 == 0:
        i = p // 2
        if 0 <= i <= 2:
            trace = (-1) ** (i * i) * h[i]
    assert (dimension + trace) % 2 == 0
    return (dimension + trace) // 2


def test_hodge_square_and_isv_verdicts():
    """(1,0,1) squares to (1,0,1,0,1) and is the unique ISV pattern;
    (1,2,1) squares to (1,2,2,2,1) and is rejected; the closed-form square
    agrees with the trace-formula oracle for all entries <= 4.  < 0.1 s."""
    start = time.monotonic()
    assert symmetric_square_hodge((1, 0, 1)) == (1, 0, 1, 0, 1)
    assert isv_surface_check((1, 0, 1))
    assert isv_pattern_check(symmetric_square_hodge((1, 0, 1)))
    assert symmetric_square_hodge((1, 2, 1)) == (1, 2, 2, 2, 1)
    assert not isv_pattern_check(symmetric_square_hodge((1, 2, 1)))
    for h1 in range(5):
        for h2 in range(5):
            h = (1, h1, h2)
            expected = tuple(
                _squared_dimension_by_trace(h, p) for p in range(5)
            )
            assert symmetric_square_hodge(h) == expected, h
    assert time.monotonic() - start < 0.1


def _closure_sweep_groups():
    s4 = permgroup.generate(
        (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))),
        domain_size=4,
    )
    a4 = permgroup.generate(
        (Permutation((1, 2, 0, 3)), Permutation((0, 2, 3, 1))),
        domain_size=4,
    )
    d4 = permgroup.generate(
        (Permutation((1, 2, 3, 0)), Permutation((3, 2, 1, 0))),
        domain_size=4,
    )
    v4 = permgroup.generate(
        (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))),
        domain_size=4,
    )
    s3 = permgroup.generate(
        (Permutation((1, 0, 2)), Permutation((1, 2, 0))), domain_size=3
    )
    z8 = permgroup.generate(
        (Permutation(tuple((i + 1) % 8 for i in range(8))),), domain_size=8
    )
    z12 = permgroup.generate(
        (Permutation(tuple((i + 1) % 12 for i in range(12))),),
        domain_size=12,
    )
    q8 = regular_model(quaternion_table())
    return {
        "S4": s4, "A4": a4, "D4": d4, "V4": v4,
        "S3": s3, "Z8": z8, "Z12": z12, "Q8": q8,
    }


def test_galois_closure_laws():
    """For every subgroup of each sample group of order <= 24 the closure
    is Galois, dominates the cover (its degree is the index of the core,
    which lies inside the subgroup), is exactly idempotent, and is minimal:
    no normal subgroup inside the defining subgroup beats the core.  < 1 s."""
    start = time.monotonic()
    expected_orders = {
        "S4": 24, "A4": 12, "D4": 8, "V4": 4,
        "S3": 6, "Z8": 8, "Z12": 12, "Q8": 8,
    }
    for name, group in _closure_sweep_groups().items():
        assert group.order == expected_orders[name], name
        all_subs = permgroup.subgroups(group)
        normal_subs = [
            sub for sub in all_subs if permgroup.is_normal(sub, group)
        ]
        for sub in all_subs:
            cover = cover_from_subgroup(group, sub)
            closed = galois_closure(cover)
            assert closed.galois, (name, sub.order)
            assert closed.degree % cover.degree == 0, (name, sub.order)
            assert galois_closure(closed) is closed, (name, sub.order)
            core = permgroup.core(group, sub)
            assert core.is_subgroup_of(sub)
            assert closed.degree == group.order // core.order, \
                (name, sub.order)
            best_normal_order = max(
                n.order for n in normal_subs if n.is_subgroup_of(sub)
            )
            assert core.order == best_normal_order, (name, sub.order)
            assert closed.degree == group.order // best_normal_order, \
                (name, sub.order)
    assert time.monotonic() - start < 1.0


def test_large_coset_enumerations():
    """D800, Dic30 and Z40 x Z40 enumerate and realize to their orders,
    and the (3,3,3), (2,3,6) and (2,4,4) triangle groups, which are
    infinite, are refused at the coset cap.  Median 0.034 s; < 0.35 s."""
    start = time.monotonic()
    finite = (
        ("< r s | r^800, s^2, s r s r >", 1600),
        ("< a b | a^60, a^30 b^-2, b^-1 a b a >", 120),
        ("< a b | a^40, b^40, a b a^-1 b^-1 >", 1600),
    )
    for text, order in finite:
        table = coset_enumeration(parse_presentation(text))
        assert table.index == order, text
        assert permutation_realization(table).order == order, text
    triangles = (
        "< a b | a^3, b^3, a b a b a b >",
        "< a b | a^2, b^3, a b a b a b a b a b a b >",
        "< a b | a^2, b^4, a b a b a b a b >",
    )
    for text in triangles:
        with pytest.raises(CapExceeded, match="^coset enumeration exceeded "
                                              "cap of 4000 cosets$"):
            coset_enumeration(parse_presentation(text), cap=4000)
    assert time.monotonic() - start < 0.35
