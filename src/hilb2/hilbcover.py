"""Finite working model of the two-point Hilbert-scheme cover construction.

Start from a free action of a finite group G (order d) on a sheet set Z
over a base B.  On the square Z x Z live the coordinate swap
(z, w) -> (w, z), the second-slot translations (z, w) -> (z, g.w), the
diagonal translations (z, w) -> (g.z, g.w) and the antidiagonal
translations (z, w) -> (a.z, a^-1.w).  Three subgroups of the symmetry
group of the square organize everything:

* the pair group, generated by the swap and the second-slot translations,
  has order 2 d^2 and its orbit space is the symmetric quotient of B;
* the diagonal group, generated by the swap and the diagonal translations,
  has order 2 d; its orbits over an off-doubled symmetric point number d,
  but over a doubled point they number (d + t) / 2 where t counts the
  solutions of g^2 = id (each orbit pair {r, r^-1} merges), so its orbit
  space covers the symmetric quotient with non-constant fibers unless
  every element of G squares to the identity.  It is normal in the pair
  group exactly in that square-to-identity case;
* the antidiagonal group, generated by the swap and the antidiagonal
  translations, is always normal in the pair group: the product of the
  two slot coordinates, read in the abelianization of G, is a surjective
  homomorphism from the pair group onto G/[G, G] whose kernel is exactly
  the antidiagonal group.  Its order is 2 d |[G, G]| and it has exactly
  |G/[G, G]| orbits over every symmetric point — the same count on and
  off the doubled locus — so its orbit space is an unramified
  intermediate quotient of degree |G/[G, G]|.  For abelian G that degree
  is d and the quotient induces the full Hilbert-square cover; for
  nonabelian G only the abelianized cover survives the squaring.  The
  antidiagonal group coincides with the diagonal one whenever every
  element squares to the identity.

Every one of these laws is verified on every call at construction time,
directly or by induction over generators.  Degenerate models (one sheet
over one base point) collapse every permutation of Z x Z, so each element
also acts on two marker points — swap-type elements exchange them,
translation-type elements fix them — which keeps the abstract group sizes
faithful.  Orbit, fiber and
component computations leave the marker points out.

Index conventions, fixed for reproducibility: a sheet (g, b) has index
g * |B| + b with g in multiplication-table order and b in input order; a
pair (z, w) has index z * |Z| + w; the marker points are m and m + 1
with m = |Z|^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import itertools

from . import permgroup
from .descriptors import CoverDescriptor
from .errors import (
    EmptyBase,
    HomomorphismFailure,
    NonAbelianDeckGroup,
    NotGalois,
    UnknownPoint,
)
from .permgroup import DEFAULT_ELEMENT_CAP, Group, Permutation
from .tables import GroupTable


@dataclass(frozen=True, order=True)
class SymPoint:
    """An unordered pair of base labels; first <= second in base order."""

    first: str
    second: str

    @property
    def is_diagonal(self) -> bool:
        return self.first == self.second

    @property
    def label(self) -> str:
        if self.is_diagonal:
            return f"2{self.first}"
        return f"{self.first}+{self.second}"


@dataclass(frozen=True)
class SymQuotient:
    """The symmetric square of a finite label set.

    Points are ordered lexicographically by base-index pairs (i, j) with
    i <= j, so for base (a, b) the order is 2a, a+b, 2b.
    """

    base: tuple[str, ...]
    points: tuple[SymPoint, ...]

    def __post_init__(self) -> None:
        n = len(self.base)
        if len(self.points) != n * (n + 1) // 2:
            raise ValueError("a symmetric square has n(n+1)/2 points")

    def index_of(self, point) -> int:
        """Index of a point given as a SymPoint or its label."""
        for i, p in enumerate(self.points):
            if p == point or p.label == point:
                return i
        raise UnknownPoint(f"{point!r} is not a point of this symmetric square")


def symmetric_quotient(base) -> SymQuotient:
    base = tuple(base)
    points = tuple(
        SymPoint(base[i], base[j])
        for i in range(len(base)) for j in range(i, len(base))
    )
    return SymQuotient(base, points)


@dataclass(frozen=True)
class GSet:
    """A free action of a finite group on sheets over a labeled base.

    The point set is G x B acted on by left multiplication in the first
    slot; the orbit space is B.  Constructed through :func:`free_gset`,
    which verifies freeness by exhaustion.
    """

    group: GroupTable
    base: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.group.order * len(self.base)

    def point_of(self, g: int, b: int) -> int:
        return g * len(self.base) + b

    def g_of(self, z: int) -> int:
        return z // len(self.base)

    def b_of(self, z: int) -> int:
        return z % len(self.base)

    def point_label(self, z: int) -> str:
        g, b = self.g_of(z), self.b_of(z)
        if g == self.group.identity:
            return self.base[b]
        return f"{self.base[b]}.{g}"

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.point_label(z) for z in range(self.size))

    def translation(self, g: int) -> Permutation:
        """The sheet permutation (h, b) -> (g h, b)."""
        mul = self.group.mul
        return Permutation(tuple(
            self.point_of(mul(g, self.g_of(z)), self.b_of(z))
            for z in range(self.size)
        ))


def free_gset(group: GroupTable, base) -> GSet:
    """Build the standard free model; verify freeness point by point."""
    base = tuple(base)
    if not base:
        raise EmptyBase("the base needs at least one point")
    if len(set(base)) != len(base):
        raise ValueError("duplicate base labels")
    gset = GSet(group, base)
    identity = group.identity
    for g in range(group.order):
        if g == identity:
            continue
        moved = gset.translation(g)
        for z in range(gset.size):
            if moved(z) == z:
                raise ValueError(
                    f"action is not free: element {g} fixes a point"
                )
    return gset


@dataclass(frozen=True)
class HilbConstruction:
    """The verified package built on the square of a free G-sheet model.

    ``swap``, ``second_slot_maps``, ``diagonal_maps``,
    ``antidiagonal_maps`` and ``pair_translations`` permute the
    ``pair_count`` pair indices followed by the two marker points, which
    swap-type elements exchange; the three groups they generate act on the
    same ``pair_count + 2`` points, and ``images[:pair_count]`` is an
    element's action on the square.
    ``pair_translations[g1 * d + g]`` acts by (z, w) -> (g1.z, g.w);
    ``antidiagonal_maps[a]`` is the pair translation by (a, a^-1).

    ``diagonal_copies[g]`` lists the pair indices (z, g.z);
    ``sym_fibers[i]`` lists the pair indices over symmetric point i;
    ``diagonal_orbit_fibers[i]`` / ``antidiagonal_orbit_fibers[i]`` list
    the orbits of the respective subgroup over symmetric point i, each
    orbit sorted, orbits ordered by smallest member.
    """

    gset: GSet
    swap: Permutation
    second_slot_maps: tuple[Permutation, ...]
    diagonal_maps: tuple[Permutation, ...]
    antidiagonal_maps: tuple[Permutation, ...]
    pair_translations: tuple[Permutation, ...]
    pair_group: Group
    diagonal_group: Group
    antidiagonal_group: Group
    diagonal_copies: tuple[tuple[int, ...], ...]
    sym: SymQuotient
    sym_fibers: tuple[tuple[int, ...], ...]
    diagonal_orbit_fibers: tuple[tuple[tuple[int, ...], ...], ...]
    antidiagonal_orbit_fibers: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def d(self) -> int:
        return self.gset.group.order

    @property
    def pair_count(self) -> int:
        return self.gset.size ** 2

    @property
    def square_exponent_holds(self) -> bool:
        """True when every group element squares to the identity."""
        table = self.gset.group
        return all(
            table.mul(g, g) == table.identity for g in range(table.order)
        )


def _with_markers(images, m: int, *, swap_type: bool) -> Permutation:
    """A permutation of the m pairs, extended to the marker points."""
    markers = (m + 1, m) if swap_type else (m, m + 1)
    return Permutation(tuple(images) + markers)


def _square_orbits(group: Group, m: int) -> list[tuple[int, ...]]:
    """Orbits on the m pair indices, leaving out the marker orbit."""
    return [orbit for orbit in permgroup.orbits(group) if orbit[0] < m]


def _orbit_fibers(group: Group, point_sym, sym_count: int,
                  label: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Orbits of a marker-model subgroup on the square, bucketed by the
    symmetric point under each orbit (raising ``HomomorphismFailure`` if an
    orbit straddles two points)."""
    per_sym: list[list[tuple[int, ...]]] = [[] for _ in range(sym_count)]
    for orbit in _square_orbits(group, len(point_sym)):
        targets = {point_sym[k] for k in orbit}
        if len(targets) != 1:
            raise HomomorphismFailure(
                f"a {label} orbit crosses symmetric points"
            )
        per_sym[targets.pop()].append(orbit)
    return tuple(tuple(bucket) for bucket in per_sym)


def build_construction(gset: GSet, *, cap: int = DEFAULT_ELEMENT_CAP) -> HilbConstruction:
    """Assemble the whole package and verify every law on every call.

    A failed law raises :class:`HomomorphismFailure` naming it (it means
    the model itself is broken, not the input).  A law about all of G or
    all of the pair group J is checked on generators only where a
    standard induction carries it to every element: a map phi from a
    finite group with phi(e) = id and phi(s h) = phi(s) phi(h) for every
    generator s and every h is a homomorphism, and the elements that
    commute with a fixed element form a subgroup.

    Checked directly:

    * the swap is an involution;
    * diagonal map of g = swap . slot-map(g) . swap . slot-map(g), read as
      the pair translation indexed (g, g);
    * swap . slot-map(g1) . swap moves (z, w) to (g1.z, w); slot maps move
      (z, w) to (z, g.w) by construction, so the pair translation indexed
      (g1, g) moves (z, w) to (g1.z, g.w);
    * the d^2 pair translations are distinct; the marker-fixing half of
      the pair group is exactly the pair translations and the group has
      order 2 d^2, so the other half is swap times pair translations; the
      diagonal group's marker-fixing half is the diagonal maps, order
      2 d; the antidiagonal group has order 2 d |commutator of G| (its
      marker-fixing half has order d |commutator of G|, and is the
      antidiagonal maps in the abelian case);
    * the diagonal group is normal in the pair group exactly when every
      g satisfies g^2 = id; the antidiagonal group is always normal; the
      two subgroups coincide in the g^2 = id case (normality itself is
      settled on generators, see :func:`permgroup.is_normal`);
    * the pair-group orbits partition the square into the
      symmetric-point fibers, of size 2 d^2 off the doubled locus and d^2
      on it;
    * the diagonal preimage splits into d disjoint copies of the sheet
      set, and each copy is fixed pointwise by its antidiagonal swap
      element;
    * diagonal-group orbits over a symmetric point number d off the
      doubled locus and (d + t) / 2 on it, t = #{g : g^2 = id};
      antidiagonal-group orbits number |G/[G, G]| over every point
      (constant fibers; d of them in the abelian case).

    Checked by generator induction:

    * g -> second-slot map and g -> diagonal map are homomorphisms, and
      a -> antidiagonal map is a homomorphism exactly when G is abelian;
    * slot-map(h) commutes with swap . slot-map(g1) . swap for generators
      h, hence for every h;
    * sending a pair-group element to the class of g1 * g in the
      abelianization of G, where (g1.b0, g.b0) is its image of the pair
      (b0, b0), is a homomorphism onto G/[G, G] (checked against the swap
      and the generator slot maps) with kernel exactly the antidiagonal
      group — the intermediate quotient is Galois with deck group
      G/[G, G], which is all of G in the abelian case.

    Following from the above: prefixing slot-map(h) rewrites the pair
    translation (g1, g) into (g1, h g) — commutation, then the slot-map
    homomorphism.

    Raises ``CapExceeded`` if the generated groups would pass ``cap``.
    """
    table = gset.group
    d = table.order
    n = gset.size
    m = n * n
    mul = table.mul
    identity = table.identity
    gens_of_g = table.small_generating_set()

    translations = [gset.translation(g).images for g in range(d)]
    swap = _with_markers(
        (w * n + z for z in range(n) for w in range(n)), m, swap_type=True
    )
    slot_maps = tuple(
        _with_markers((z * n + tr[w] for z in range(n) for w in range(n)),
                      m, swap_type=False)
        for tr in translations
    )
    diag_maps = tuple(
        _with_markers((tr[z] * n + tr[w] for z in range(n) for w in range(n)),
                      m, swap_type=False)
        for tr in translations
    )
    dom = m + 2

    # Both families are homomorphic images of G.
    if not slot_maps[identity].is_identity:
        raise HomomorphismFailure("second-slot maps do not form a homomorphism")
    if not diag_maps[identity].is_identity:
        raise HomomorphismFailure("diagonal maps do not form a homomorphism")
    for s in gens_of_g:
        for h in range(d):
            sh = mul(s, h)
            if slot_maps[s] * slot_maps[h] != slot_maps[sh]:
                raise HomomorphismFailure(
                    "second-slot maps do not form a homomorphism"
                )
            if diag_maps[s] * diag_maps[h] != diag_maps[sh]:
                raise HomomorphismFailure(
                    "diagonal maps do not form a homomorphism"
                )
    if not (swap * swap).is_identity:
        raise HomomorphismFailure("swap is not an involution")

    pair_group = permgroup.generate(
        (swap,) + tuple(slot_maps[g] for g in gens_of_g),
        domain_size=dom, cap=cap,
    )
    diagonal_group = permgroup.generate(
        (swap,) + tuple(diag_maps[g] for g in gens_of_g),
        domain_size=dom, cap=cap,
    )
    if not all(p in pair_group.elements for p in slot_maps):
        raise HomomorphismFailure("a second-slot map escaped the pair group")
    if not all(p in diagonal_group.elements for p in diag_maps):
        raise HomomorphismFailure("a diagonal map escaped the diagonal group")
    if not diagonal_group.is_subgroup_of(pair_group):
        raise HomomorphismFailure("diagonal group is not inside the pair group")

    # Pair translations and the rewriting identities.
    conjugated = [swap * slot_maps[g1] * swap for g1 in range(d)]
    pair_maps = tuple(
        conjugated[g1] * slot_maps[g]
        for g1 in range(d) for g in range(d)
    )
    # diagonal map = (swap . slot . swap) . slot.
    for g in range(d):
        if pair_maps[g * d + g] != diag_maps[g]:
            raise HomomorphismFailure(
                "diagonal map is not the double swap-slot word"
            )
    for h in gens_of_g:
        for g1 in range(d):
            if slot_maps[h] * conjugated[g1] != pair_maps[g1 * d + h]:
                raise HomomorphismFailure(
                    "slot map does not commute past a conjugated slot map"
                )
    # Prefixing a slot map rewrites the second index:
    # slot(h) pair(g1, g) = conj(g1) slot(h) slot(g) = pair(g1, h g) by the
    # commutation just checked and the slot-map homomorphism.

    # swap . slot(g1) . swap acts as (g1.z, w) and slot(g) as (z, g.w) by
    # construction, so pair(g1, g) acts as (g1.z, g.w).
    for g1, tr in enumerate(translations):
        expected = tuple(itertools.chain.from_iterable(
            range(t * n, t * n + n) for t in tr
        ))
        if conjugated[g1].images[:m] != expected:
            raise HomomorphismFailure(
                "pair translation does not act as (g1.z, g.w)"
            )

    # Normal forms pin the orders exactly.  Each group holds the swap,
    # which exchanges the markers, so its other half is the swap times
    # its marker-fixing half.
    pair_set = set(pair_maps)
    if len(pair_set) != d * d:
        raise HomomorphismFailure("pair translations are not distinct")
    if {w for w in pair_group.elements if w.images[m] == m} != pair_set \
            or len(pair_group) != 2 * d * d:
        raise HomomorphismFailure(
            "pair group is not translations plus swap times translations"
        )
    if {w for w in diagonal_group.elements if w.images[m] == m} \
            != set(diag_maps) or len(diagonal_group) != 2 * d:
        raise HomomorphismFailure(
            "diagonal group is not diagonals plus swap times diagonals"
        )

    # The antidiagonal family and its group.
    anti_maps = tuple(pair_maps[a * d + table.inv(a)] for a in range(d))
    anti_hom = anti_maps[identity].is_identity and all(
        anti_maps[s] * anti_maps[b] == anti_maps[mul(s, b)]
        for s in gens_of_g for b in range(d)
    )
    if anti_hom != table.is_abelian:
        raise HomomorphismFailure(
            "antidiagonal maps compose homomorphically iff G is abelian"
        )
    antidiagonal_group = permgroup.generate(
        (swap,) + anti_maps, domain_size=dom, cap=cap
    )
    if not antidiagonal_group.is_subgroup_of(pair_group):
        raise HomomorphismFailure(
            "antidiagonal group is not inside the pair group"
        )
    commutator_order = len(table.commutator_subgroup())
    plus_part = {
        w for w in antidiagonal_group.elements if w.images[m] == m
    }
    if len(plus_part) != d * commutator_order:
        raise HomomorphismFailure(
            "translation half of the antidiagonal group has the wrong order"
        )
    if len(antidiagonal_group) != 2 * d * commutator_order:
        raise HomomorphismFailure("antidiagonal group has the wrong order")
    if table.is_abelian and plus_part != set(anti_maps):
        raise HomomorphismFailure(
            "abelian antidiagonal group is not antidiagonals plus swaps"
        )

    # Normality laws for the two intermediate subgroups.
    squares_to_id = all(mul(g, g) == identity for g in range(d))
    if permgroup.is_normal(diagonal_group, pair_group) != squares_to_id:
        raise HomomorphismFailure(
            "diagonal group normality differs from the g^2 = id condition"
        )
    if not permgroup.is_normal(antidiagonal_group, pair_group):
        raise HomomorphismFailure(
            "antidiagonal group is not normal in the pair group"
        )
    if squares_to_id and antidiagonal_group.elements != diagonal_group.elements:
        raise HomomorphismFailure(
            "the two intermediate subgroups differ despite g^2 = id"
        )

    # The product of the two slots, read in the abelianization of G, is a
    # homomorphism onto G/[G, G] with kernel exactly the antidiagonal
    # group — so the quotient of the pair group by it is G/[G, G].  An
    # element's slot product is read off its image of p0 = (b0, b0): the
    # pair translation (g1, g) sends p0 to (g1.b0, g.b0), its swap
    # companion to (g.b0, g1.b0), and g g1 = g1 g in the abelianization.
    ab_table, class_of = table.quotient_by(table.commutator_subgroup())
    if ab_table.order != d // commutator_order:
        raise HomomorphismFailure("abelianization has the wrong order")
    ab_mul = ab_table.mul
    z0 = gset.point_of(identity, 0)
    p0 = z0 * n + z0
    class_at = {}
    for g1 in range(d):
        row = gset.point_of(g1, 0) * n
        for g in range(d):
            class_at[row + gset.point_of(g, 0)] = class_of[mul(g1, g)]
    gen_values = [(swap, ab_table.identity)] + [
        (slot_maps[s], class_of[s]) for s in gens_of_g
    ]
    for gen, gen_value in gen_values:
        gen_images = gen.images
        for w in pair_group.element_list:
            k = w.images[p0]
            if class_at[gen_images[k]] != ab_mul(gen_value, class_at[k]):
                raise HomomorphismFailure("slot product is not a homomorphism")
    kernel = {
        w for w in pair_group.element_list
        if class_at[w.images[p0]] == ab_table.identity
    }
    if kernel != antidiagonal_group.elements:
        raise HomomorphismFailure(
            "slot-product kernel is not the antidiagonal group"
        )

    # Diagonal copies.
    diagonal_copies = tuple(
        tuple(z * n + translations[g][z] for z in range(n))
        for g in range(d)
    )
    swap_images = swap.images
    seen: set[int] = set()
    for g, copy in enumerate(diagonal_copies):
        if len(copy) != n:
            raise HomomorphismFailure("diagonal copy is not a sheet set")
        if set(copy) & seen:
            raise HomomorphismFailure("diagonal copies overlap")
        seen |= set(copy)
        # The antidiagonal swap element indexed by g fixes copy g
        # pointwise — this is what makes the intermediate quotient tame
        # along the doubled locus.
        anti_images = anti_maps[g].images
        if any(swap_images[anti_images[k]] != k for k in copy):
            raise HomomorphismFailure(
                "antidiagonal swap element does not fix its diagonal copy"
            )

    # Symmetric-point fibers of the big quotient map.
    sym = symmetric_quotient(gset.base)
    sym_index = {}
    for i, p in enumerate(sym.points):
        bi = gset.base.index(p.first)
        bj = gset.base.index(p.second)
        sym_index[(bi, bj)] = i
    fibers: list[list[int]] = [[] for _ in sym.points]
    for k in range(m):
        z, w = divmod(k, n)
        bz, bw = gset.b_of(z), gset.b_of(w)
        fibers[sym_index[(min(bz, bw), max(bz, bw))]].append(k)
    sym_fibers = tuple(tuple(f) for f in fibers)
    for i, p in enumerate(sym.points):
        expected_size = d * d if p.is_diagonal else 2 * d * d
        if len(sym_fibers[i]) != expected_size:
            raise HomomorphismFailure("fiber size law failed")
    diagonal_union = set(
        itertools.chain.from_iterable(
            sym_fibers[i] for i, p in enumerate(sym.points) if p.is_diagonal
        )
    )
    if seen != diagonal_union:
        raise HomomorphismFailure(
            "diagonal copies do not exhaust the doubled-locus preimage"
        )

    # The pair-group orbits on the square are exactly the fibers.
    pair_orbit_sets = {frozenset(o) for o in _square_orbits(pair_group, m)}
    if pair_orbit_sets != {frozenset(f) for f in sym_fibers}:
        raise HomomorphismFailure(
            "pair-group orbit space is not the symmetric quotient"
        )

    point_sym = [0] * m
    for i, f in enumerate(sym_fibers):
        for k in f:
            point_sym[k] = i

    # Diagonal-group orbits: d per off-doubled point, (d + t) / 2 per
    # doubled point, t = #{g : g^2 = id} (orbit classes {r, r^-1} merge).
    diag_fibers = _orbit_fibers(
        diagonal_group, point_sym, len(sym.points), "diagonal-group"
    )
    t = sum(1 for g in range(d) if mul(g, g) == identity)
    for i, p in enumerate(sym.points):
        expected = (d + t) // 2 if p.is_diagonal else d
        if len(diag_fibers[i]) != expected:
            raise HomomorphismFailure("diagonal-group orbit count law failed")

    # Antidiagonal-group orbits: constant |G/[G, G]| per point (= d for
    # abelian G) — the intermediate quotient is unramified.
    anti_fibers = _orbit_fibers(
        antidiagonal_group, point_sym, len(sym.points), "antidiagonal-group"
    )
    for i in range(len(sym.points)):
        if len(anti_fibers[i]) != ab_table.order:
            raise HomomorphismFailure(
                "antidiagonal-group orbit count is not the abelianization order"
            )

    return HilbConstruction(
        gset=gset,
        swap=swap,
        second_slot_maps=slot_maps,
        diagonal_maps=diag_maps,
        antidiagonal_maps=anti_maps,
        pair_translations=pair_maps,
        pair_group=pair_group,
        diagonal_group=diagonal_group,
        antidiagonal_group=antidiagonal_group,
        diagonal_copies=diagonal_copies,
        sym=sym,
        sym_fibers=sym_fibers,
        diagonal_orbit_fibers=diag_fibers,
        antidiagonal_orbit_fibers=anti_fibers,
    )


@dataclass(frozen=True)
class SignReport:
    """Audit record for the swap-parity homomorphism and its splitting."""

    pair_group_order: int
    d: int
    kernel_order: int
    kernel_is_translation_image: bool
    translation_injective: bool
    translation_homomorphism: bool
    sign_homomorphism: bool
    section_sign: int
    section_squares_to_identity: bool

    @property
    def ok(self) -> bool:
        return (
            self.kernel_is_translation_image
            and self.translation_injective
            and self.translation_homomorphism
            and self.sign_homomorphism
            and self.section_sign == -1
            and self.section_squares_to_identity
            and self.kernel_order == self.d ** 2
            and self.pair_group_order == 2 * self.d ** 2
        )


def sign_and_splitting(c: HilbConstruction) -> SignReport:
    """Verify the swap-parity map on the pair group splits with kernel G x G.

    The sign of a pair-group element is -1 when it exchanges the two marker
    points and 1 when it fixes them; the sign map is a homomorphism onto
    the order-2 group, split by the swap, and its kernel is exactly the
    injective image of G x G through the pair translations.  Any failed
    check raises :class:`HomomorphismFailure` — with a validly built
    construction this never happens.
    """
    m = c.pair_count
    d = c.d

    sign = {w: -1 if w.images[m] != m else 1 for w in c.pair_group}
    # The sign is the action on the marker pair, so it is multiplicative;
    # re-check by generator induction anyway: gen * w sends the marker m
    # to gen(w(m)).
    sign_hom = all(
        (-1 if gen.images[w.images[m]] != m else 1) == sign[gen] * s
        for gen in c.pair_group.generators for w, s in sign.items()
    )

    kernel = {w for w, s in sign.items() if s == 1}
    pair_maps = c.pair_translations
    pair_set = set(pair_maps)
    kernel_is_image = kernel == pair_set
    injective = len(pair_set) == d * d

    # Homomorphism from the direct square, by generator induction: left
    # multiplication by a generator pair matches composition.
    table = c.gset.group
    gens = tuple(table.small_generating_set())
    identity = table.identity
    gen_pairs = [(u, identity) for u in gens] + [(identity, v) for v in gens]
    translation_hom = True
    for (u, v) in gen_pairs:
        lead = pair_maps[u * d + v]
        for g1 in range(d):
            for g in range(d):
                composed = lead * pair_maps[g1 * d + g]
                direct = pair_maps[table.mul(u, g1) * d + table.mul(v, g)]
                if composed != direct:
                    translation_hom = False
    section_sign = sign[c.swap]
    squares = (c.swap * c.swap).is_identity

    report = SignReport(
        pair_group_order=len(c.pair_group),
        d=d,
        kernel_order=len(kernel),
        kernel_is_translation_image=kernel_is_image,
        translation_injective=injective,
        translation_homomorphism=translation_hom,
        sign_homomorphism=sign_hom,
        section_sign=section_sign,
        section_squares_to_identity=squares,
    )
    if not report.ok:
        raise HomomorphismFailure(f"sign/splitting verification failed: {report}")
    return report


def big_fiber(c: HilbConstruction, point) -> tuple[int, ...]:
    """Pair indices over a symmetric point (a SymPoint or its label).

    Size is 2 d^2 off the doubled locus and d^2 on it, a law checked at
    construction time.
    """
    return c.sym_fibers[c.sym.index_of(point)]


def diagonal_components(c: HilbConstruction) -> dict[int, tuple[int, ...]]:
    """The d disjoint sheets over the doubled locus, keyed by g.

    Sheet g is {(z, g.z)}; disjointness and exhaustion of the doubled-locus
    preimage are checked at construction time.
    """
    return dict(enumerate(c.diagonal_copies))


def fixed_components(c: HilbConstruction) -> frozenset[int]:
    """Labels g of diagonal copies fixed pointwise by a nontrivial element
    of the diagonal group.

    Computed by exhaustion over the whole diagonal group and re-checked
    against the closed form {g : g * g = identity}: the only candidates
    are swap-type elements, which fix (z, g.z) for every z exactly when
    their translation part equals g and g has order at most 2 (the swap
    itself fixes the true diagonal).  Note the contrast with the
    antidiagonal group, where every diagonal copy has a pointwise fixer.
    """
    found = set()
    for g, copy in enumerate(c.diagonal_copies):
        for w in c.diagonal_group:
            if w.is_identity:
                continue
            if all(w.images[k] == k for k in copy):
                found.add(g)
                break
    table = c.gset.group
    closed_form = {
        g for g in range(table.order) if table.mul(g, g) == table.identity
    }
    if found != closed_form:
        raise HomomorphismFailure(
            f"fixed diagonal copies {sorted(found)} disagree with the order-2 "
            f"prediction {sorted(closed_form)}"
        )
    return frozenset(found)


def xi_tilde_fibers(c: HilbConstruction) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Fibers of the intermediate degree-d quotient, keyed by point label.

    These are the antidiagonal-group orbits over each symmetric point;
    every fiber carries exactly |G/[G, G]| orbits — d of them when G is
    abelian — so the intermediate cover is unramified, as checked at
    construction time.  (The diagonal-group orbit decomposition, whose
    count drops to (d + t) / 2 over doubled points, is available as
    ``c.diagonal_orbit_fibers``.)
    """
    return {
        p.label: c.antidiagonal_orbit_fibers[i]
        for i, p in enumerate(c.sym.points)
    }


def _abstract_table(group: Group) -> tuple[GroupTable, tuple[Permutation, ...]]:
    """Multiplication table of a permutation group over its sorted elements."""
    elements = group.element_list
    index = {p: i for i, p in enumerate(elements)}
    rows = tuple(
        tuple(index[a * b] for b in elements) for a in elements
    )
    return GroupTable(rows), elements


def hilb_square_cover(xi: CoverDescriptor, *,
                      cap: int = DEFAULT_ELEMENT_CAP) -> CoverDescriptor:
    """The induced cover of the Hilbert square of the base of ``xi``.

    ``xi`` must be Galois with an abelian deck group acting freely on its
    sheets.  The result is the degree-|deck| cover whose sheets are the
    antidiagonal-group orbits of the squared model: over each symmetric
    point ``P`` the sheets are labeled ``P#0 .. P#(d-1)`` in order of
    smallest orbit member, sheets over doubled points are recorded as
    center labels (the locus blown up downstairs), the deck group is
    carried over isomorphically, and no ramification is introduced —
    the intermediate quotient has constant degree-d fibers.
    """
    if not xi.galois:
        raise NotGalois("the squared construction needs a Galois input cover")
    deck = xi.deck_group
    if not deck.is_abelian():
        raise NonAbelianDeckGroup(
            "the squared construction needs an abelian deck group: with a "
            "nonabelian one the intermediate quotient only realizes the "
            "abelianized cover, not a cover of the full degree"
        )
    for p in deck.element_list:
        if not p.is_identity and any(p(x) == x for x in range(deck.domain_size)):
            raise NotGalois("deck group does not act freely on the sheets")

    table, elements = _abstract_table(deck)
    blocks = permgroup.orbits(deck)
    base_labels = tuple(
        min(xi.total_points[i] for i in block) for block in blocks
    )
    if len(set(base_labels)) != len(base_labels):
        raise ValueError("deck orbits do not have distinct minimal labels")

    gset = free_gset(table, base_labels)
    c = build_construction(gset, cap=cap)
    if len(c.antidiagonal_group) != 2 * c.d:
        raise HomomorphismFailure(
            "abelian deck group but oversized antidiagonal subgroup"
        )
    d = c.d

    total: list[str] = []
    center: list[str] = []
    orbit_to_index: dict[int, int] = {}
    for i, p in enumerate(c.sym.points):
        for k, orbit in enumerate(c.antidiagonal_orbit_fibers[i]):
            label = f"{p.label}#{k}"
            orbit_to_index[orbit[0]] = len(total)
            total.append(label)
            if p.is_diagonal:
                center.append(label)

    orbit_of_point: dict[int, int] = {}
    for i in range(len(c.sym.points)):
        for orbit in c.antidiagonal_orbit_fibers[i]:
            root = orbit_to_index[orbit[0]]
            for k in orbit:
                orbit_of_point[k] = root

    deck_perms = set()
    for g in range(d):
        mover = c.second_slot_maps[g]
        images = tuple(
            orbit_of_point[mover(min_point)]
            for min_point in sorted(orbit_to_index, key=orbit_to_index.get)
        )
        deck_perms.add(Permutation(images))
    if len(deck_perms) != d:
        raise HomomorphismFailure("deck action on orbits is not faithful")
    new_deck = permgroup.group_from_elements(len(total), deck_perms)
    if len(new_deck) != d:
        raise HomomorphismFailure("deck group on orbits has the wrong order")

    return CoverDescriptor(
        base_label=f"Hilb2({xi.base_label})",
        total_points=tuple(total),
        monodromy=new_deck,
        degree=d,
        deck_group=new_deck,
        galois=True,
        ramification_labels=xi.ramification_labels,
        center_labels=tuple(center),
    )
