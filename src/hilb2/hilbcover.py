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
directly or by induction over generators, or is certified by how the maps
are built and by the group axioms that the multiplication table was
validated against.  The three groups are held in their imprimitive action
on Z ⊔ Z, two copies of the sheets (the pair group is the wreath product
G ≀ C2 in this action; Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005): the swap exchanges the copies, translations move
each copy within itself, and the sign of an element says whether it
exchanges them.  Every generator maps copies onto copies by construction,
so every element does, and an element x then acts on the square by the
rule rho: the pair (z, w) is the transversal {z, |Z| + w} and goes to
{x(z), x(|Z| + w)}, read first copy first.  That is the action of x on a
set of two-point subsets, so rho is a homomorphism by construction and
needs no certificate.  Orbit partitions are read from labels of the pairs
that rho of every generator is checked to keep; fiber and component
computations read rho at the single pairs they need; no group is listed
on the square.  Because Z ⊔ Z has two points even for one sheet over one
base point, where the square has one, the abstract group sizes stay
faithful in that degenerate case.

Index conventions, fixed for reproducibility: a sheet (g, b) has index
g * |B| + b with g in multiplication-table order and b in input order; a
pair (z, w) has index z * |Z| + w; on Z ⊔ Z sheet z of the first copy is
point z and of the second copy point |Z| + z.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import itertools
import math
import operator

from . import permgroup
from .descriptors import CoverDescriptor
from .errors import (
    CapExceeded,
    EmptyBase,
    HomomorphismFailure,
    NonAbelianDeckGroup,
    NotGalois,
    UnknownPoint,
)
from .permgroup import DEFAULT_ELEMENT_CAP, Group, Permutation
from .tables import GroupTable, _greedy_generators


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


def _index_pairs(size: int) -> list[tuple[int, int]]:
    """Base-index pairs (i, j) with i <= j, in symmetric-point order."""
    return [(i, j) for i in range(size) for j in range(i, size)]


def symmetric_quotient(base) -> SymQuotient:
    base = tuple(base)
    points = tuple(
        SymPoint(base[i], base[j]) for i, j in _index_pairs(len(base))
    )
    return SymQuotient(base, points)


@dataclass(frozen=True)
class GSet:
    """A free action of a finite group on sheets over a labeled base.

    The point set is G x B acted on by left multiplication in the first
    slot; the orbit space is B.  The group must be a :class:`GroupTable`,
    whose construction validates the group axioms, and the base a nonempty
    tuple of distinct labels, so every GSet is the free model that
    :func:`free_gset` describes.
    """

    group: GroupTable
    base: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.group, GroupTable):
            raise TypeError("the group of a GSet must be a GroupTable")
        if not self.base:
            raise EmptyBase("the base needs at least one point")
        if len(set(self.base)) != len(self.base):
            raise ValueError("duplicate base labels")

    @property
    def size(self) -> int:
        return self.group.order * len(self.base)

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


def _left_translation(group: GroupTable, nb: int, g: int) -> tuple[int, ...]:
    """Images of (h, b) -> (g h, b) on the sheets over ``nb`` base points,
    read off row g of the multiplication table: the block of the nb sheets
    over h goes to the block over g h.

    On a validated table, g -> translation(g) is an injective
    homomorphism, with no check of its own: row e is the identity
    arrangement, so translation(e) = id; associativity gives
    translation(s)(translation(h)(k, b)) = (s (h k), b) = ((s h) k, b) =
    translation(s h)(k, b); and translation(g) sends the block over e to
    the block over g e = g, so distinct elements give distinct maps.
    """
    row = group.table[g]
    if nb == 1:
        return tuple(row)
    return tuple([h + b for h in [x * nb for x in row] for b in range(nb)])


def _reader(indices):
    """Reads a sequence at ``indices`` in one C-level call; one index
    occurs only over one sheet, where ``tuple`` reads the one item."""
    return operator.itemgetter(*indices) if len(indices) > 1 else tuple


@dataclass(frozen=True)
class WreathModel:
    """G ≀ Sₙ in its imprimitive action on n copies of the free G-set Z
    over nb base points (Dixon and Mortimer, *Permutation Groups*, 1996,
    §2.6).

    Point i |Z| + z is sheet z in copy i.  ``vector(v)`` is the direct sum
    that acts on copy i by v[i]'s translation, read from ``copies[i]``, so
    it keeps every copy; transposition lift i exchanges copies i and
    i + 1, sheet by sheet.  ``wreath`` is generated by the lifts and by
    vector(e, ..., e, s) for the generators s of G, and its order d^n n!
    is certified, never closed:

    * vector is an injective homomorphism from G^n, as g -> translation(g)
      is one (see :func:`_left_translation`) on each copy;
    * a permutation p of the copies acts as (i, z) -> (p(i), z), an
      injective homomorphism from Sₙ, and the lifts, images of the
      transpositions (i, i + 1), generate its image Ŝ;
    * the lift of p conjugates vector(v) into the vector with v[i] in copy
      p(i), so Ŝ normalizes V = vector(G^n), and meets it only in the
      identity, as V keeps every copy;
    * so V Ŝ is a group of order d^n n!.  It holds the generators and they
      generate it: with Ŝ they move each generator of G into every copy,
      which gives V.

    ``wreath.elements`` closes the generators on first read and checks
    that they reach exactly the certified order.

    The lifts and vectors are wrapped unvalidated (``permgroup._raw``), as
    is any sum copies[p(0)][g_0] + ... + copies[p(n - 1)][g_(n-1)] for a
    permutation p of the copies: copies[i][g], g's translation shifted into
    copy i, is a bijection onto copy i, so such a sum is a bijection.
    """

    wreath: Group
    transposition_lifts: tuple[Permutation, ...]
    copies: tuple[tuple[tuple[int, ...], ...], ...] = field(
        repr=False, compare=False)

    def vector(self, v) -> Permutation:
        return permgroup._raw(sum(map(tuple.__getitem__, self.copies, v), ()))


def wreath_product(table: GroupTable, nb: int, n: int) -> WreathModel:
    """The wreath product G ≀ Sₙ of ``table``'s group on n copies of its
    free G-set over ``nb`` base points (see :class:`WreathModel`)."""
    d = table.order
    size = d * nb
    translations = tuple(_left_translation(table, nb, g) for g in range(d))
    # Copy i reads each translation off its points, sharing their ints.
    copies = (translations,) + tuple(
        tuple([read(points) for read in map(_reader, translations)])
        for points in (tuple(range(i * size, i * size + size))
                       for i in range(1, n)))
    lifts = []
    for i in range(n - 1):
        arrangement = list(range(n))
        arrangement[i], arrangement[i + 1] = i + 1, i
        lifts.append(permgroup._raw(itertools.chain.from_iterable(
            range(c * size, c * size + size) for c in arrangement)))
    # vector(e, ..., e, s): the identity on every copy but the last.
    fixed = tuple(range((n - 1) * size))
    vectors = [permgroup._raw(fixed + copies[-1][s])
               for s in table.small_generating_set()]
    wreath = Group(*permgroup.generating_tuple(lifts + vectors, n * size),
                   d ** n * math.factorial(n))
    return WreathModel(wreath, tuple(lifts), copies)


def free_gset(group: GroupTable, base) -> GSet:
    """The standard free model of ``group`` over the labels ``base``.

    The action is free with no check of its own: g sends the sheet (h, b)
    to (g h, b), and column h of a validated table is a bijection holding
    h in the identity's row, so g h = h only for g = e.
    """
    return GSet(group, tuple(base))


@dataclass(frozen=True)
class HilbConstruction:
    """The verified package built on the square of a free G-sheet model.

    ``swap`` and the three groups permute Z ⊔ Z, the 2 |Z| points of two
    copies of the sheets (sheet z of the first copy is point z, of the
    second |Z| + z), and so do the maps below.  Each maps copies onto
    copies; an element x moves the pair z * |Z| + w of the square to the
    transversal {x(z), x(|Z| + w)}, read first copy first.  The pair
    translation (g1, g) acts as g1 on the first copy and g on the second,
    so by (z, w) -> (g1.z, g.w) on the square; ``second_slot_maps[g]``,
    ``diagonal_maps[g]`` and ``antidiagonal_maps[a]`` are those by (e, g),
    (g, g) and (a, a^-1).  They and ``diagonal_copies[g]``, the pairs
    (z, g.z), are read from the copies of ``model`` (J's
    :class:`WreathModel`) when first read.  ``pair_group``, of certified
    order 2 d^2, lists its elements only when they are first read, and so
    do the diagonal group and an abelian antidiagonal group, which answer
    membership from their normal forms (the maps and the swap times the
    maps); a nonabelian antidiagonal group is closed.

    ``sym_fibers[i]`` lists the pair indices over symmetric point i;
    ``diagonal_orbit_fibers[i]`` / ``antidiagonal_orbit_fibers[i]`` list
    the orbits of the respective subgroup over symmetric point i, each
    orbit sorted, orbits ordered by smallest member.  The build checks
    every law about them from the labels of the pairs it keeps
    (``point_labels``, ``diagonal_labels``, ``antidiagonal_labels``: the
    label of pair k is its class), so the three fiber lists are bucketed
    from those labels only when a caller first reads them, and a caller
    that needs only sizes reads the counts the build recorded:
    ``xi_fiber_sizes[i]``, the number of pairs over point i, and
    ``antidiagonal_orbit_counts[i]``, the number of antidiagonal-group
    orbits there.
    """

    gset: GSet
    swap: Permutation
    pair_group: Group
    diagonal_group: Group
    antidiagonal_group: Group
    sym: SymQuotient
    xi_fiber_sizes: tuple[int, ...]
    antidiagonal_orbit_counts: tuple[int, ...]
    model: WreathModel = field(repr=False, compare=False)
    point_labels: list[int] = field(repr=False, compare=False)
    diagonal_labels: list[int] = field(repr=False, compare=False)
    antidiagonal_labels: list[int] = field(repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.gset.group.order

    @cached_property
    def second_slot_maps(self) -> tuple[Permutation, ...]:
        e = self.gset.group.identity
        return tuple(self.model.vector((e, g)) for g in range(self.d))

    @cached_property
    def diagonal_maps(self) -> tuple[Permutation, ...]:
        return tuple(self.model.vector((g, g)) for g in range(self.d))

    @cached_property
    def antidiagonal_maps(self) -> tuple[Permutation, ...]:
        return tuple(_antidiagonal_maps(self.model, self.gset.group.inverses))

    @cached_property
    def diagonal_copies(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_diagonal_copies(self.model.copies[0], self.gset.size))

    @cached_property
    def sym_fibers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_label_classes(self.point_labels, len(self.sym.points)))

    @cached_property
    def diagonal_orbit_fibers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        d = self.d
        return _split_by_point(_label_classes(
            self.diagonal_labels, len(self.sym.points) * d), d)

    @cached_property
    def antidiagonal_orbit_fibers(self
                                  ) -> tuple[tuple[tuple[int, ...], ...], ...]:
        classes = self.antidiagonal_orbit_counts[0]  # |G/[G, G]| everywhere
        return _split_by_point(_label_classes(
            self.antidiagonal_labels, len(self.sym.points) * classes),
            classes)


def _rows(labels, n: int) -> list[tuple[int, ...]]:
    """The labels of the pairs z * n + w cut into n rows, row z in w order."""
    return list(zip(*[iter(labels)] * n))


def _label_lines(labels, n: int) -> list[tuple[int, ...]]:
    """The rows of ``labels`` and then its columns: line n + w holds the
    labels of the pairs z * n + w in z order."""
    rows = _rows(labels, n)
    return rows + list(zip(*rows))


def _rows_through(lines, images) -> list[tuple[int, ...]]:
    """The rows of the labels of the pairs rho(x)(z, w), x given by its
    images on Z ⊔ Z and mapping copies onto copies (``lines`` from
    :func:`_label_lines`, n = |Z|).  The pair (z, w), the transversal
    {z, n + w}, goes to {x(z), x(n + w)}: the label in row x(z) at column
    x(n + w) - n if x keeps the copies, in column x(z) - n at row
    x(n + w) if it exchanges them.  Either way row z is line x(z) read at
    x(n + w) mod n, one C-level ``itemgetter`` call per row."""
    n = len(images) // 2
    read = _reader([w % n for w in images[n:]])
    return list(map(read, map(lines.__getitem__, images[:n])))


def _fixes_transversals(maps, n: int, firsts, seconds) -> bool:
    """Whether rho of the product of ``maps`` (images on Z ⊔ Z, applied
    first to last) fixes every pair {firsts[j], seconds[j]} of the square,
    given as a transversal of Z ⊔ Z (firsts in the first copy, seconds in
    the second).  A pair is fixed, as rho reads it, exactly when its
    transversal is.  Each map sends copies onto copies, so its first
    image says whether it keeps them or exchanges them for every pair.
    All 2 |firsts| points are read through each map by one ``itemgetter``;
    if the product exchanges the copies, each first point must land on its
    second and each second on its first, so the result is one comparison
    either way."""
    points = (*firsts, *seconds)
    exchanged = False
    for images in maps:
        points = operator.itemgetter(*points)(images)
        exchanged ^= images[0] >= n
    if exchanged:
        return points == (*seconds, *firsts)
    return points == (*firsts, *seconds)


def _diagonal_copies(translations, n: int):
    """The copies of the sheets in the square, one by one: copy g holds
    the pairs z * n + g.z, read off g's translation."""
    row_starts = range(0, n * n, n)
    return (tuple(map(operator.add, row_starts, tr)) for tr in translations)


def _pair_labels(translations, tables) -> list[int]:
    """A label for each pair of the square: the pair ((g1, b), (g2, b'))
    gets ``tables[b][b'][t]``, where ``translations[g1]`` sends the sheet
    (g2, b') to (t, b').  So the row of sheet (g1, b), in sheet order
    (g2, b'), is the row of (e, b), ``tables[b][b'][g2]``, read at
    ``translations[g1]``: one C-level call per row."""
    starts = [tuple(itertools.chain.from_iterable(zip(*by_second)))
              for by_second in tables]
    labels: list[int] = []
    for read in map(_reader, translations):
        for start in starts:
            labels.extend(read(start))
    return labels


def _point_labels(gset: GSet, sym_of) -> list[int]:
    """The pair-group label of each pair: its symmetric point.  Pair
    z * n + w lies over sym_of[b][b'] for the base points b, b' of z and
    w alone, so each row of the square repeats sym_of[b] d times."""
    d = gset.group.order
    return list(itertools.chain.from_iterable(
        sym_of[b] * d for b in range(len(gset.base))
    )) * d


def _diagonal_labels(table: GroupTable, translations, sym_of) -> list[int]:
    """The diagonal-group label of each pair ((g1, b), (g2, b')): i * d + r
    over symmetric point i, where r = g1^-1 g2 if b < b', r^-1 if b > b'
    and min(r, r^-1) if b = b', read at g1^-1's translation."""
    d, inv = table.order, table.inverses
    nb = len(sym_of)
    # min(r, r^-1), r^-1 and r for every r, at the sign 0, 1, -1 of b - b'.
    orientations = (tuple(map(min, range(d), inv)), inv, range(d))
    oriented = [
        [tuple([sym_of[b][b2] * d + r
                for r in orientations[(b > b2) - (b < b2)]])
         for b2 in range(nb)]
        for b in range(nb)
    ]
    return _pair_labels(list(map(translations.__getitem__, inv)), oriented)


def _antidiagonal_labels(translations, sym_of, class_of,
                         classes: int) -> list[int]:
    """The antidiagonal-group label of each pair ((g1, b), (g2, b')):
    i * classes + the class of g1 g2 in G/[G, G], over symmetric point i,
    read at g1's translation (``translations[g]``)."""
    nb = len(sym_of)
    by_product = [
        [tuple([sym_of[b][b2] * classes + c for c in class_of])
         for b2 in range(nb)]
        for b in range(nb)
    ]
    return _pair_labels(translations, by_product)


def _check_labels_kept(lines, gens, what: str) -> None:
    """Check that the square action of every generator in ``gens`` keeps
    every label (``lines`` from :func:`_label_lines`), the rows read
    through it compared with the rows, so each orbit lies in one label
    class."""
    rows = lines[:len(lines) // 2]
    for x in gens:
        if _rows_through(lines, x.images) != rows:
            raise HomomorphismFailure(
                f"{what} generators do not keep the orbit labels"
            )


def _classes_per_point(labels, per_point: int, points: int) -> list[int]:
    """The number of distinct labels i * per_point + r over each symmetric
    point i, read from the set of labels."""
    owners = [label // per_point for label in set(labels)]
    return list(map(owners.count, range(points)))


def _label_classes(labels, count: int) -> list[tuple[int, ...]]:
    """The pairs of the square bucketed by their label in range(count),
    each bucket in index order."""
    buckets: list[list[int]] = [[] for _ in range(count)]
    appends = [bucket.append for bucket in buckets]
    for k, label in enumerate(labels):
        appends[label](k)
    return [tuple(bucket) for bucket in buckets]


def _split_by_point(classes, per_point: int
                    ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Label classes i * per_point + r grouped by symmetric point i, empty
    ones dropped, ordered by smallest member."""
    return tuple(
        tuple(sorted(filter(None, classes[i:i + per_point])))
        for i in range(0, len(classes), per_point)
    )


def _antidiagonal_maps(model: WreathModel, inverses):
    """The antidiagonal maps pair(g, g^-1) of the pair group ``model``, one
    by one in g order, direct sums of g's translation in the first copy
    and that of ``inverses[g]`` in the second."""
    first, second = model.copies
    return map(permgroup._raw, map(
        operator.add, first, map(second.__getitem__, inverses)))


def _swap_normal_form(model: WreathModel, partner, gens) -> Group:
    """The group maps ⊔ swap . maps on Z ⊔ Z of the pair group ``model``,
    for maps[g] = pair(g, partner[g]), an injective image of G that
    conjugation by the involution swap keeps, so the union is closed (both
    proved in :func:`build_construction`), generated by the swap and the
    maps of ``gens``.  Membership is read off the normal form, and the
    members are listed only when first read (``Group.member_at``):
    maps[g] = copies[0][g] + copies[1][partner[g]] and swap . maps[g] =
    copies[1][g] + copies[0][partner[g]] send point 0 to g.0 and
    |Z| + g.0, distinct by the free action."""
    swap, = model.transposition_lifts
    first, second = model.copies
    n = len(first[0])
    at = {tr[0]: g for g, tr in enumerate(first)}  # g.z0 -> g

    def member_at(p: int) -> Permutation | None:
        g = at.get(p % n)
        return None if g is None else permgroup._raw(
            first[g] + second[partner[g]] if p < n
            else second[g] + first[partner[g]])

    return Group(*permgroup.generating_tuple(
        (swap, *(member_at(first[s][0]) for s in gens)), 2 * n),
        2 * len(at), member_at)


def refuse_pair_group_over_cap(d: int, cap: int) -> None:
    """Raise ``CapExceeded`` if the pair group of an order-``d`` group,
    of order 2 d^2, would pass ``cap``."""
    if 2 * d * d > cap:
        raise CapExceeded(f"group closure exceeded cap of {cap} elements")


def build_construction(gset: GSet, *, cap: int = DEFAULT_ELEMENT_CAP) -> HilbConstruction:
    """Assemble the whole package; every law is checked on every call or
    certified below.

    A failed law raises :class:`HomomorphismFailure` naming it (it means
    the model itself is broken, not the input).  The maps and groups act
    on Z ⊔ Z (see :class:`HilbConstruction`).  A law about all of G or all
    of the pair group J is checked on generators only where a standard
    induction carries it to every element: a map phi from a finite group
    with phi(e) = id and phi(s h) = phi(s) phi(h) for every generator s and
    every h is a homomorphism, and the elements that commute with a fixed
    element form a subgroup.

    Every map is built as what it is, with no check of its own.  The pair
    group J is G ≀ C2 on the two copies, :func:`wreath_product` at n = 2,
    so its order 2 d^2 is certified there, never closed (see
    :class:`WreathModel`).  Its one transposition lift is the swap, which
    sends point z to |Z| + z and back, an involution that exchanges the
    copies.  The pair translation pair(g1, g) = vector((g1, g)) is g1's
    translation on the first copy and g's on the second, so it keeps each
    copy and moves the pair (z, w) to (g1.z, g.w) under rho.  The
    second-slot map of g is pair(e, g), the diagonal map
    diag(g) = pair(g, g) and the antidiagonal map anti(a) = pair(a, a^-1).
    J is generated by the swap and the slot maps of G's generators.  Write
    P for the pair translations: pair is an injective homomorphism from
    G x G, J = P ⊔ swap . P, and swap . pair(g1, g) . swap = pair(g, g1).
    The swap carries each copy's images to the other, so swap . pair(g1, g)
    is the sum copies[1][g1] + copies[0][g] (see :class:`WreathModel`): the
    swap halves of D and H are such sums, with no product.  No map is held:
    each is read from the model's copies when a check needs it.

    The diagonal group D, and the antidiagonal group H of an abelian G,
    answer membership from their normal forms (:func:`_swap_normal_form`),
    never closed (same reference):

    * D = diag(G) ⊔ swap . diag(G).  diag is pair on the diagonal of
      G x G, so an injective homomorphism, and
      swap . diag(s) . swap = diag(s), so the involution swap centralizes
      diag(G) and the union is a group.
      It has order 2 d, as its swap half exchanges the copies and diag(G)
      keeps them; it holds D's generators (the swap and the diag(s)) and
      lies in D, so it is D;
    * anti(s) . anti(b) = pair(s b, s^-1 b^-1) while
      anti(s b) = pair(s b, b^-1 s^-1), so anti is a homomorphism exactly
      when G is abelian, and then an injective one, as pair is.  For
      abelian G, H = anti(G) ⊔ swap . anti(G) in the same way as D:
      swap . anti(s) . swap = pair(s^-1, s) = anti(s^-1), as the inverse
      map of a validated table is an involution, so conjugation by the
      swap inverts anti(G); its order is
      2 d = 2 d |[G, G]|.  A nonabelian H is closed from its generators;
      its order is checked to be that of the slot-product kernel,
      2 d |[G, G]| (below), and its copy-keeping half, the kernel of the
      sign on H, has index 2 in H, as the swap lies in H with sign -1;
    * when every g satisfies g^2 = e, a^-1 = a, so anti(a) = diag(a) for
      every a, and G is abelian: H and D have the same normal form, so
      the two intermediate subgroups coincide.

    The generators of D and H are the swap and pair translations, so both
    lie in J by construction, and so do the slot maps.

    The square action rho needs no certificate (no presentation of G ≀ C2
    whose relators its generator images satisfy): every generator of J
    maps copies onto copies by construction, so every element of J does,
    and on such permutations rho is the action on the transversal
    two-point sets {z, |Z| + w}, a homomorphism by construction.  So an
    element of J keeps a labelling of the pairs as soon as each generator's
    square action does, and rho is never listed element by element.

    Certified by the validated table, with no check of their own (the
    :class:`GroupTable` of a :class:`GSet` has passed its row, column,
    identity, inverse and associativity checks):

    * the sheet translation of g is read off row g of the table
      (:func:`_left_translation`), so it is the model's (h, b) -> (g h, b),
      whose sheet coordinates the labels below read, and g ->
      translation(g) is an injective homomorphism.  So the row of labels
      of sheet (g1, b), reading g1 g2 or g1^-1 g2 at (g2, b'), is that of
      (e, b) read at g1's or g1^-1's translation (:func:`_pair_labels`);
    * the d diagonal copies T[g] = {(z, g.z)} of the sheets are disjoint
      sheet sets: T[g] holds one pair for each sheet z, and T[g] and T[h]
      share none for g != h, as g.z = h.z would make h^-1 g != e fix z,
      which the free action (see :func:`free_gset`) rules out;
    * the abelianization read by :meth:`GroupTable.quotient_by` has one
      element for each coset of [G, G], so its order is d / |[G, G]|.

    Checked directly on Z ⊔ Z: the diagonal group is normal in the pair
    group exactly when every g satisfies g^2 = id; the antidiagonal group
    is always normal (normality itself is settled on generators, see
    :func:`permgroup.normalized_by`).

    Checked by generator induction: the slot product, sending a pair-group
    element x to the class of g1 * g in the abelianization of G, where
    (g1.b0, g.b0) = rho(x)(b0, b0), is a homomorphism onto G/[G, G] with
    kernel exactly the antidiagonal group — the intermediate quotient is
    Galois with deck group G/[G, G], which is all of G in the abelian
    case.  It is read from the antidiagonal labels (symmetric point, class
    of g1 g2) below: on every pair, the swap keeps each label and
    slot-map(s) multiplies each label's class by the class of s.  As rho
    is a homomorphism, the elements that multiply every class by one value
    form a subgroup, on which the value is multiplicative; it holds the
    generators, so it is J, and an element's value is its slot product
    (the label of (b0, b0) has class 1).  rho(x)(b0, b0) hits each pair
    over (b0, b0) twice as x runs over J, so the kernel has order twice
    the number of those pairs of class 1, d |[G, G]|, checked to be the
    order of the antidiagonal group.  That group lies in the kernel, as
    its generators keep every antidiagonal label (the orbit check below),
    so it is the kernel.  It is generated by the swap, the antidiagonal
    maps of the generators of G and the pair translations (c, e) for c in
    [G, G]; its order and this kernel check reject a wrong generating set.

    Checked through rho, the three orbit partitions read from labels, with
    no orbit search.  Each group labels the pairs ((g1, b), (g2, b')) of
    the square; every generator's square action is checked to keep every
    label, so each orbit lies in one label class, and each class is one
    orbit for the reason given:

    * J labels a pair by its symmetric point {b, b'}.  P moves it to every
      pair over (b, b') and the swap to (b', b), so the orbits are the
      symmetric-point fibers, checked to have size 2 d^2 off the doubled
      locus and d^2 on it;
    * D labels it by its symmetric point and r = g1^-1 g2 if b < b', r^-1
      if b > b', min(r, r^-1) if b = b'.  D holds every diagonal
      translation, (g1, g2) -> (g g1, g g2), which keeps r and runs
      through the d pairs of each r over (b, b'), and the swap, which
      exchanges (b, b') with (b', b) and r with r^-1.  Its orbits over a
      symmetric point are checked to number d off the doubled locus and
      (d + t) / 2 on it, t = #{g : g^2 = id};
    * H labels it by its symmetric point and the class of g1 g2 in
      G/[G, G], for any G.  The copy-keeping half of H has order
      d |[G, G]| and acts freely on pairs, as the translations do, so its
      orbits on the d^2 pairs over (b, b') have d |[G, G]| members, as
      many as a label class holds there; with the swap, each class over a
      symmetric point is one orbit.  They are checked to number
      |G/[G, G]| over every point (constant fibers; d of them in the
      abelian case);
    * the d diagonal copies are checked to lie over the doubled locus, so
      they split the doubled-locus preimage, and each copy is checked to
      be fixed pointwise by its antidiagonal swap element.

    The sizes and counts these laws name are read off the labels, the
    fiber sizes as how often each symmetric point occurs and the orbit
    counts as the distinct labels over each point; the partitions
    themselves are bucketed only when a caller first reads them (see
    :class:`HilbConstruction`).

    Following from the above, the sign (-1 when an element exchanges the
    copies, 1 when it keeps them) is a homomorphism from J onto the
    order-2 group: every element maps copies onto copies, so it permutes
    the two copies, and the sign is that permutation.  Its kernel, the
    copy-keeping half, is exactly the injective image P of G x G (the
    certificate of :class:`WreathModel`), and the swap, an involution of
    sign -1, splits it.  So the sign splits on every construction this returns.

    Raises ``CapExceeded`` before building anything if the pair group, of
    order 2 d^2, would pass ``cap``.
    """
    table = gset.group
    d = table.order
    refuse_pair_group_over_cap(d, cap)
    n = gset.size
    nb = len(gset.base)
    identity = table.identity
    gens_of_g = table.small_generating_set()

    # J is G ≀ C2 on two copies of the sheets, its order certified, not
    # closed, and every map is the swap or a pair translation, a direct sum
    # of two translations (see the docstring).
    model = wreath_product(table, nb, 2)
    pair_group = model.wreath
    swap, = model.transposition_lifts
    pair = model.vector
    first, second = model.copies
    pair_gens = (swap,) + tuple(pair((identity, s)) for s in gens_of_g)

    # D and an abelian H answer membership from their normal forms (see
    # the docstring).  The swap, the generators' antidiagonal maps and
    # (c, e) for c in [G, G] generate H: with the swap they give
    # [G, G] x [G, G], and modulo that the antidiagonal maps of generators
    # give every (a, a^-1).
    diagonal_group = _swap_normal_form(model, range(d), gens_of_g)
    commutator = table.commutator_subgroup()
    if table.is_abelian:
        antidiagonal_group = _swap_normal_form(model, table.inverses,
                                               gens_of_g)
    else:
        antidiagonal_group = permgroup.generate(
            (swap,) + tuple(pair((s, table.inverses[s])) for s in gens_of_g)
            + tuple(pair((c, identity)) for c in commutator),
            domain_size=2 * n, cap=cap,
        )

    # Normality laws for the two intermediate subgroups; t counts the
    # solutions of g^2 = id.
    t = list(map(operator.getitem, table.table, range(d))).count(identity)
    if permgroup.normalized_by(diagonal_group, pair_group.generators) \
            != (t == d):
        raise HomomorphismFailure(
            "diagonal group normality differs from the g^2 = id condition"
        )
    if not permgroup.normalized_by(antidiagonal_group, pair_group.generators):
        raise HomomorphismFailure(
            "antidiagonal group is not normal in the pair group"
        )

    # Symmetric points: sym_of[b][b'] indexes the point {b, b'}.
    sym = symmetric_quotient(gset.base)
    sym_count = len(sym.points)
    sym_index = {ij: i for i, ij in enumerate(_index_pairs(nb))}
    sym_of = [[sym_index[(min(bz, bw), max(bz, bw))] for bw in range(nb)]
              for bz in range(nb)]

    # The product of the two slots, read in the abelianization of G, is a
    # homomorphism onto G/[G, G] with kernel exactly the antidiagonal
    # group, read from the antidiagonal labels i * classes + class of
    # g1 g2 (see the docstring): the swap keeps every label, slot-map(s)
    # multiplies every label's class by the class of s.
    ab_table, class_of = table.quotient_by(commutator)
    classes = ab_table.order
    anti_labels = _antidiagonal_labels(first, sym_of, class_of, classes)
    anti_lines = _label_lines(anti_labels, n)
    gen_values = [ab_table.identity] + [class_of[s] for s in gens_of_g]
    targets = _reader(anti_labels)  # the labels read off times
    for x, value in zip(pair_gens, gen_values):
        times = [i + c for i in range(0, sym_count * classes, classes)
                 for c in ab_table.table[value]]
        if _rows_through(anti_lines, x) != _rows(targets(times), n):
            raise HomomorphismFailure("slot product is not a homomorphism")
    # Label ab_table.identity is class 1 over point 0 = (b0, b0).
    if 2 * anti_labels.count(ab_table.identity) != len(antidiagonal_group):
        raise HomomorphismFailure(
            "slot-product kernel is not the antidiagonal group"
        )

    # The antidiagonal swap element indexed by g, swap . anti(g), fixes
    # copy g, the transversals {z, |Z| + g.z}, pointwise — this is what
    # makes the intermediate quotient tame along the doubled locus.  The
    # second copy of the model holds |Z| + g.z.
    for anti, shifted in zip(_antidiagonal_maps(model, table.inverses),
                             second):
        if not _fixes_transversals((anti, swap), n, range(n), shifted):
            raise HomomorphismFailure(
                "antidiagonal swap element does not fix its diagonal copy"
            )

    # The pair-group orbits on the square are exactly the symmetric-point
    # fibers.
    point_sym = _point_labels(gset, sym_of)
    _check_labels_kept(_label_lines(point_sym, n), pair_gens, "pair-group")
    xi_fiber_sizes = tuple(map(point_sym.count, range(sym_count)))
    doubled = set(map(list.__getitem__, sym_of, range(nb)))  # each {b, b}
    if xi_fiber_sizes != tuple(d * d if i in doubled else 2 * d * d
                               for i in range(sym_count)):
        raise HomomorphismFailure("fiber size law failed")
    # The d disjoint copies of |Z| = d |B| pairs and the |B| doubled fibers
    # of d^2 pairs each both hold |B| d^2 pairs, so the copies are the
    # doubled-locus preimage once they lie over doubled points.
    if not doubled.issuperset(itertools.chain.from_iterable(
            _reader(copy)(point_sym) for copy in _diagonal_copies(first, n))):
        raise HomomorphismFailure(
            "diagonal copies do not exhaust the doubled-locus preimage"
        )

    # The other two partitions, read from labels the same way.
    # Diagonal-group orbits: d per off-doubled point, (d + t) / 2 per
    # doubled point, t = #{g : g^2 = id} (orbit classes {r, r^-1} merge).
    diag_labels = _diagonal_labels(table, first, sym_of)
    _check_labels_kept(_label_lines(diag_labels, n),
                       diagonal_group.generators, "diagonal-group")
    if _classes_per_point(diag_labels, d, sym_count) != [
            (d + t) // 2 if i in doubled else d for i in range(sym_count)]:
        raise HomomorphismFailure("diagonal-group orbit count law failed")

    # Antidiagonal-group orbits: constant |G/[G, G]| per point (= d for
    # abelian G) — the intermediate quotient is unramified.
    _check_labels_kept(anti_lines, antidiagonal_group.generators,
                       "antidiagonal-group")
    anti_counts = _classes_per_point(anti_labels, classes, sym_count)
    if anti_counts != [classes] * sym_count:
        raise HomomorphismFailure(
            "antidiagonal-group orbit count is not the abelianization order"
        )

    return HilbConstruction(
        gset=gset,
        swap=swap,
        pair_group=pair_group,
        diagonal_group=diagonal_group,
        antidiagonal_group=antidiagonal_group,
        sym=sym,
        xi_fiber_sizes=xi_fiber_sizes,
        antidiagonal_orbit_counts=tuple(anti_counts),
        model=model,
        point_labels=point_sym,
        diagonal_labels=diag_labels,
        antidiagonal_labels=anti_labels,
    )


def diagonal_components(c: HilbConstruction) -> dict[int, tuple[int, ...]]:
    """The d disjoint sheets over the doubled locus, keyed by g.

    Sheet g is {(z, g.z)}; the sheets are disjoint by the free action, and
    their exhaustion of the doubled-locus preimage is checked at
    construction time.
    """
    return dict(enumerate(c.diagonal_copies))


def fixed_components(c: HilbConstruction) -> frozenset[int]:
    """Labels g of diagonal copies fixed pointwise by a nontrivial element
    of the diagonal group.

    The diagonal group is diag(G) ⊔ swap . diag(G) (its normal form, see
    :func:`build_construction`), and only swap . diag(g) can fix copy g,
    T[g] = {(z, g.z)}, pointwise: diag(h) with h != e moves every pair, as
    the action is free, and swap . diag(h) sends (z, g.z) to (h g.z, h.z),
    a fixed point only if h = g and g^2 = e.  So each copy's one
    candidate is read on all of the copy's pairs in one pass, and the
    result is re-checked against the closed form {g : g * g = identity}
    (the swap itself fixes the true diagonal).  Note the contrast with the
    antidiagonal group, where every diagonal copy has a pointwise fixer.
    """
    n = c.gset.size
    # diag(g) = copies[0][g] + copies[1][g] moves the second copy by g, so
    # copy g, the pairs (z, g.z), is the transversals {z, copies[1][g][z]}.
    found = {g for g, (tr, shifted) in enumerate(zip(*c.model.copies))
             if _fixes_transversals((tr + shifted, c.swap), n, range(n),
                                    shifted)}
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


_NONABELIAN_DECK = (
    "the squared construction needs an abelian deck group: with a "
    "nonabelian one the intermediate quotient only realizes the "
    "abelianized cover, not a cover of the full degree"
)


def _sheets(labels: list[int], per_point: int
            ) -> tuple[list[int], dict[int, int]]:
    """The label classes i * per_point + c of ``labels`` as sheets,
    numbered point by point over the symmetric points i, and over each
    point in the order their labels first occur, which is the order of the
    classes' smallest members.  Returns each sheet's leader, its smallest
    pair, and the sheet number of each label.  ``dict.fromkeys`` lists
    the labels in the order they first occur, in one C-level pass, and
    each leader is the first index of its label."""
    ordered = sorted(dict.fromkeys(labels), key=per_point.__rfloordiv__)
    return (list(map(labels.index, ordered)),
            dict(zip(ordered, itertools.count())))


def square_cover(gset: GSet, base_label: str, *,
                 ramification_labels=frozenset(),
                 cap: int = DEFAULT_ELEMENT_CAP) -> CoverDescriptor:
    """The cover of the Hilbert square of ``base_label`` induced by the
    free model ``gset`` of an abelian group G of order d.

    Over each symmetric point ``P`` its d sheets are the antidiagonal-group
    orbits of :func:`build_construction`, labeled ``P#0 .. P#(d-1)`` by
    smallest member, which is the order in which their antidiagonal labels
    first occur (:func:`_sheets`); sheets over doubled points are the
    center labels (the locus blown up downstairs), and no ramification is
    introduced.  The deck group is G acting through the second-slot maps,
    read at each sheet's smallest pair and looked up by that pair's
    label, as the orbits are the label classes.  The action is checked to
    be a homomorphism (deck(s) deck(g) = deck(s g) for the generators s
    and every g, one pass of right multiplications per s) and injective,
    so its image is closed and isomorphic to G.  Its generators are the
    greedy generators of that image in sorted order, which the table walks
    over the elements g sorted by deck(g):
    g -> deck(g) is an injective homomorphism, so x is reached from the
    identity by the earlier generators in the table exactly when deck(x)
    is by their images, and the walk picks the same generators as one
    over the permutations (:func:`permgroup.group_from_elements`).
    That G acts faithfully on the sheets of ``gset`` needs no check of its
    own: the validated table makes the action free (see :func:`free_gset`),
    and :func:`build_construction` checks that the pair group has order
    2 d^2, so the generators it uses generate G.
    """
    table = gset.group
    if not table.is_abelian:
        raise NonAbelianDeckGroup(_NONABELIAN_DECK)
    c = build_construction(gset, cap=cap)
    d = table.order

    suffixes = [f"#{k}" for k in range(d)]
    names = [tuple(map(p.label.__add__, suffixes)) for p in c.sym.points]
    total = tuple(itertools.chain.from_iterable(names))
    center = tuple(itertools.chain.from_iterable(
        point_names for p, point_names in zip(c.sym.points, names)
        if p.is_diagonal
    ))

    # A slot map fixes the first copy (it is pair(e, g)), so it moves
    # the pair z * n + w, the transversal {z, n + w}, to
    # z * n + slot(n + w) - n.
    n = gset.size
    labels = c.antidiagonal_labels
    leaders, sheet_of = _sheets(labels, d)
    row_starts = [k - k % n - n for k in leaders]  # z * n - n
    seconds = [n + k % n for k in leaders]  # n + w
    deck = [
        Permutation([sheet_of[labels[z + mover[w]]]
                     for z, w in zip(row_starts, seconds)])
        for mover in c.second_slot_maps
    ]
    # deck(s) deck(g) for every g is deck(s) read through each deck(g)'s
    # right multiplication, and deck(s g) for every g is deck read along
    # row s of the table: one pass per generator s.
    by_deck = list(map(permgroup._right_multiplication, deck))
    for s in table.small_generating_set():
        if [times(deck[s]) for times in by_deck] \
                != list(map(deck.__getitem__, table.table[s])):
            raise HomomorphismFailure(
                "deck action on orbits is not a homomorphism"
            )
    if len(set(deck)) != d:
        raise HomomorphismFailure("deck action on orbits is not faithful")
    gens = _greedy_generators(sorted(range(d), key=deck.__getitem__),
                              table.identity, table._right_multiplication)
    deck_group = permgroup._listed(len(total), map(deck.__getitem__, gens),
                                   deck)

    return CoverDescriptor(
        base_label=f"Hilb2({base_label})",
        total_points=total,
        monodromy=deck_group,
        degree=d,
        deck_group=deck_group,
        galois=True,
        ramification_labels=ramification_labels,
        center_labels=center,
    )


def hilb_square_cover(xi: CoverDescriptor, *,
                      cap: int = DEFAULT_ELEMENT_CAP) -> CoverDescriptor:
    """The induced cover of the Hilbert square of the base of ``xi``.

    ``xi`` must be Galois with an abelian deck group acting freely on its
    sheets.  :func:`square_cover` builds the result from the deck group's
    table over its sorted elements, acting on the sheets over the deck
    orbits, each orbit labeled by its smallest sheet label (distinct
    labels, because the sheet labels are).
    """
    if not xi.galois:
        raise NotGalois("the squared construction needs a Galois input cover")
    deck = xi.deck_group
    if not deck.is_abelian():
        raise NonAbelianDeckGroup(_NONABELIAN_DECK)
    for p in deck.element_list:
        if not p.is_identity and any(p(x) == x for x in range(deck.domain_size)):
            raise NotGalois("deck group does not act freely on the sheets")

    table, _, _ = permgroup.quotient_table(
        deck, Group.trivial(deck.domain_size)
    )
    base_labels = tuple(
        min(xi.total_points[i] for i in block)
        for block in permgroup.orbits(deck)
    )

    return square_cover(
        free_gset(table, base_labels), xi.base_label,
        ramification_labels=xi.ramification_labels, cap=cap,
    )
