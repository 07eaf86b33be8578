"""Presentations, Smith normal form, coset enumeration, abelian lattices.

The Smith invariant factors are cross-checked with the determinantal
divisor formula (gcd of all k-by-k minors), a derivation independent of
the row/column reduction in the implementation.
"""
import collections
import itertools
import math
from pathlib import Path
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

import hilb2
from hilb2 import fpgroup, permgroup
from hilb2.catalog import get_surface, surface_names
from hilb2.errors import (
    CapExceeded,
    HomomorphismFailure,
    PresentationSyntaxError,
    UnknownGenerator,
)
from hilb2.fpgroup import (
    AbelianInvariants,
    AbelianSubgroup,
    CosetTable,
    Presentation,
    _Enumerator,
    _fixes_all,
    _power_root,
    _trace_all,
    abelianization,
    coset_enumeration,
    parse_presentation,
    parse_word,
    permutation_realization,
    smith_invariant_factors,
    subgroups_of_abelian,
)
from hilb2.permgroup import Permutation
from hilb2.tables import GroupTable, _invariant_chain, abelian_table


def minor_determinant(matrix, rows, cols):
    if not rows:
        return 1
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        product = 1
        for i in range(size):
            product *= matrix[rows[i]][cols[perm[i]]]
        total += sign * product
    return total


def invariant_factors_by_minors(matrix):
    """Determinantal-divisor oracle: f_k = d_k / d_{k-1} with d_k the gcd
    of all k-by-k minors, and zeros once the divisors vanish."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    width = min(rows, cols)
    factors = []
    previous = 1
    for k in range(1, width + 1):
        gcd_k = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                gcd_k = math.gcd(gcd_k, minor_determinant(matrix, rsel, csel))
        if gcd_k == 0:
            break
        factors.append(gcd_k // previous)
        previous = gcd_k
    factors.extend([0] * (width - len(factors)))
    return tuple(factors)


def test_smith_invariant_factors_frozen_values():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariant_factors([[2, 4], [6, 8]]) == (2, 4)
    assert smith_invariant_factors([[1, 0], [0, 1]]) == (1, 1)
    assert smith_invariant_factors([[0, 0], [0, 0]]) == (0, 0)
    assert smith_invariant_factors([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) \
        == (1, 3, 0)
    assert smith_invariant_factors([]) == ()
    assert smith_invariant_factors([[6]]) == (6,)
    assert smith_invariant_factors([[2, 3]]) == (1,)


def test_smith_invariant_factors_match_minor_oracle():
    matrices = [
        [[2, 0], [0, 3]],
        [[2, 4], [6, 8]],
        [[4, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[2, 0, 0], [0, 4, 0], [0, 0, 8]],
        [[3, 1, -2], [0, 5, 4]],
        [[-2, 4], [6, -8], [10, 12]],
        [[12]],
        [[0, 7], [3, 0]],
    ]
    for matrix in matrices:
        assert smith_invariant_factors(matrix) == \
            invariant_factors_by_minors(matrix), matrix


def test_parse_presentation_round_trip():
    text = "< a b | a^4, a^2 b^-2, b^-1 a b a >"
    p = parse_presentation(text)
    assert str(p) == text
    assert str(parse_presentation(str(p))) == text
    empty = str(parse_presentation("< | >"))
    assert str(parse_presentation(empty)) == empty
    assert str(parse_presentation("<a|a^2>")) == "< a | a^2 >"


_START = "abcxyzABZ_"
NAMES = st.builds(lambda head, tail: head + tail, st.sampled_from(_START),
                  st.text(_START + "019", max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_printed_presentations_parse_back(data):
    names = tuple(data.draw(st.lists(NAMES, max_size=4, unique=True)))
    letters = [k for i in range(1, len(names) + 1) for k in (i, -i)]
    words = st.lists(st.sampled_from(letters), min_size=1, max_size=8)
    relators = data.draw(st.lists(words.map(tuple), max_size=4)) \
        if names else []
    p = Presentation(names, tuple(relators))
    assert parse_presentation(str(p)) == p


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_smith_form_matches_the_commutator_quotient(data):
    # Powers of every generator and every commutator make a finite abelian
    # group of order at most 120; the extra words relate the generators.
    rank = data.draw(st.integers(1, 3))
    orders = []
    for _ in range(rank):
        orders.append(data.draw(st.integers(1, 120 // math.prod(orders))))
    letters = st.sampled_from([k for i in range(1, rank + 1) for k in (i, -i)])
    relators = [(i + 1,) * n for i, n in enumerate(orders)]
    relators += [(i, j, -i, -j)
                 for i, j in itertools.combinations(range(1, rank + 1), 2)]
    relators += data.draw(st.lists(
        st.lists(letters, min_size=1, max_size=6).map(tuple), max_size=2))
    p = Presentation(tuple("abc"[:rank]), tuple(relators))
    snf = abelianization(p)
    group = permutation_realization(coset_enumeration(p))
    derived = permgroup.commutator_subgroup(group)
    quotient, _, _ = permgroup.quotient_table(group, derived)
    assert snf.rank == 0
    assert quotient.abelian_invariants() == snf.torsion
    assert group.order == snf.order


def test_parse_presentation_errors():
    for bad in ("", "a | a^2", "< a  a^2 >", "< a | a^ >", "< a | b >"):
        with pytest.raises((PresentationSyntaxError, UnknownGenerator)):
            parse_presentation(bad)


def test_parse_word():
    p = parse_presentation("< a b | a^2, b^3 >")
    assert parse_word(p, "a b^-1") != ()
    with pytest.raises(UnknownGenerator):
        parse_word(p, "c")


def test_abelianization_of_reference_presentations():
    cases = [
        ("< | >", 0, ()),
        ("< a | a^2 >", 0, (2,)),
        ("< a | a^7 >", 0, (7,)),
        ("< a b | a^4, a^2 b^-2, b^-1 a b a >", 0, (2, 2)),
        ("< a b | a^2, b^3, a b a b >", 0, (2,)),
        ("< a | >", 1, ()),
        ("< a b | >", 2, ()),
        ("< a b | a^2 >", 1, (2,)),
    ]
    for text, rank, torsion in cases:
        result = abelianization(parse_presentation(text))
        assert (result.rank, result.torsion) == (rank, torsion), text


def test_coset_enumeration_indices():
    assert coset_enumeration(parse_presentation("< a | a^5 >")).index == 5
    assert coset_enumeration(
        parse_presentation("< a b | a^4, a^2 b^-2, b^-1 a b a >")
    ).index == 8
    assert coset_enumeration(
        parse_presentation("< a b | a^2, b^3, a b a b >")
    ).index == 6
    assert coset_enumeration(parse_presentation("< | >")).index == 1


def test_coset_enumeration_over_subgroup():
    p = parse_presentation("< a b | a^3, b^2, a b a b >")
    table = coset_enumeration(p, (parse_word(p, "b"),))
    assert table.index == 3
    q = parse_presentation("< a b | a^2, b^3, a b a b >")
    assert coset_enumeration(q, (parse_word(q, "b"),)).index == 2


def test_subgroup_word_letters_are_checked():
    p = parse_presentation("< a b | a^3, b^2, a b a b >")
    for letter in (0, 3, -3):
        with pytest.raises(ValueError, match=f"^letter {letter} is out of "
                                             f"range$"):
            coset_enumeration(p, ((1,), (2, letter)))


def test_coset_enumeration_cap():
    with pytest.raises(CapExceeded):
        coset_enumeration(parse_presentation("< a b | >"), cap=50)


def test_coset_table_check_runs_under_optimization():
    script = (
        "from hilb2 import fpgroup\n"
        "from hilb2.errors import HomomorphismFailure\n"
        "p = fpgroup.parse_presentation('< a | a^2 >')\n"
        "for rows, words in (([[0, 0], [0, 0]], ()),\n"
        "                    ([[1, 1], [0, 0]], ((1,),))):\n"
        "    fpgroup._Enumerator.run = lambda self, rows=rows: rows\n"
        "    try:\n"
        "        fpgroup.coset_enumeration(p, words)\n"
        "    except HomomorphismFailure as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == \
        "relator moved a coset\nsubgroup word moved coset 0\n"


@pytest.mark.parametrize("rows, words, failure", [
    ([[0, 0], [0, 0]], (), "relator moved a coset"),
    ([[1, 1], [0, 0]], ((1,),), "subgroup word moved coset 0"),
])
def test_coset_table_checks_name_the_law(monkeypatch, rows, words, failure):
    # The enumerator's rows replaced: a table in which a^2 moves coset 0,
    # and one in which the subgroup word a moves it.
    monkeypatch.setattr(_Enumerator, "run", lambda self: rows)
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        coset_enumeration(parse_presentation("< a | a^2 >"), words)


def corner_set(basis, coords):
    """The trivial subgroup's basis 2·I of Z2xZ2 with its corner set to 1:
    a lattice of index 4 that no longer holds (2, 0), so Z²/L is Z4 and
    reads Z2 modulo the exponent 2."""
    if basis == ((2, 0), (0, 2)):
        return ((2, 1), (0, 2)), coords
    return basis, coords


def doubled_coords(basis, coords):
    """C doubled: for H = Z2 itself, B = (1) and C = (4), so the invariants
    of H read (4,), not (2,)."""
    return basis, tuple(tuple(2 * v for v in row) for row in coords)


@pytest.mark.parametrize("moduli, broken, failure", [
    ((2,), doubled_coords,
     r"subgroup of order 2 has invariant factors \(4,\)"),
    ((2, 2), corner_set,
     "subgroup of order 1 with quotient of order 2 in a group of order 4"),
], ids=["invariants", "quotient"])
def test_subgroup_orders_are_checked(monkeypatch, moduli, broken, failure):
    # The quotient is checked on every call, the invariants on first read.
    honest = fpgroup._hermite_bases
    monkeypatch.setattr(fpgroup, "_hermite_bases", lambda moduli: (
        broken(*pair) for pair in honest(moduli)))
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        subgroups_of_abelian(AbelianInvariants(0, moduli))[-1].invariants


def test_subgroup_invariants_are_checked_on_first_read(monkeypatch):
    honest = fpgroup._hermite_bases
    monkeypatch.setattr(fpgroup, "_hermite_bases", lambda moduli: (
        doubled_coords(*pair) for pair in honest(moduli)))
    whole = subgroups_of_abelian(AbelianInvariants(0, (2,)))[-1]
    assert "invariants" not in vars(whole)
    assert whole.order == 2 and whole.elements == ((0,), (1,))
    with pytest.raises(HomomorphismFailure,
                       match=r"^subgroup of order 2 has invariant factors "
                             r"\(4,\)$"):
        whole.invariants


def test_subgroup_elements_are_checked_on_first_read():
    # A record whose order disagrees with its basis: B = (1) generates Z2.
    record = AbelianSubgroup((2,), ((1,),), ((2,),), 1,
                             AbelianInvariants(0, ()))
    with pytest.raises(HomomorphismFailure,
                       match="^the generators of a subgroup of order 1 "
                             "close to 2 elements$"):
        record.elements


def test_subgroup_order_checks_run_under_optimization():
    script = (
        "from hilb2 import fpgroup\n"
        "from hilb2.errors import HomomorphismFailure\n"
        "doubled_coords = lambda basis, coords: (\n"
        "    basis, tuple(tuple(2 * v for v in row) for row in coords))\n"
        "corner_set = lambda basis, coords: (\n"
        "    ((2, 1), (0, 2)) if basis == ((2, 0), (0, 2)) else basis, coords)\n"
        "honest = fpgroup._hermite_bases\n"
        "record = fpgroup.AbelianSubgroup(\n"
        "    (2,), ((1,),), ((2,),), 1, fpgroup.AbelianInvariants(0, ()))\n"
        "for moduli, tamper in (((2,), doubled_coords), ((2, 2), corner_set)):\n"
        "    fpgroup._hermite_bases = lambda moduli, tamper=tamper: (\n"
        "        tamper(*pair) for pair in honest(moduli))\n"
        "    try:\n"
        "        fpgroup.subgroups_of_abelian(\n"
        "            fpgroup.AbelianInvariants(0, moduli))[-1].invariants\n"
        "    except HomomorphismFailure as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    record.elements\n"
        "except HomomorphismFailure as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "subgroup of order 2 has invariant factors (4,)\n"
        "subgroup of order 1 with quotient of order 2 in a group of order 4\n"
        "the generators of a subgroup of order 1 close to 2 elements\n"
    )


class ReferenceEnumerator:
    """The coset enumerator that preceded the column-composition stop rule:
    it sweeps until a whole pass neither defines, merges nor fills anything,
    so every enumeration ends with a pass that only confirms the table."""

    def __init__(self, presentation, subgroup_words, cap):
        self.nletters = 2 * presentation.rank
        self.relators = [self._letters(w) for w in presentation.relators]
        self.subgroup_words = [self._letters(w) for w in subgroup_words]
        self.cap = cap
        self.table = [[None] * self.nletters]
        self.parent = [0]

    @staticmethod
    def _letters(word):
        return tuple(
            2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
            for letter in word
        )

    @staticmethod
    def _inv(letter):
        return letter ^ 1

    @property
    def defined(self):
        """N, the number of cosets defined so far, coset 0 included."""
        return len(self.table)

    def rep(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def define(self, alpha, letter):
        if len(self.table) >= self.cap:
            raise CapExceeded("reference enumeration exceeded its cap")
        beta = len(self.table)
        self.table.append([None] * self.nletters)
        self.parent.append(beta)
        self.table[alpha][letter] = beta
        self.table[beta][self._inv(letter)] = alpha
        return beta

    def _merge(self, queue, a, b):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.parent[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        queue = []
        self._merge(queue, a, b)
        i = 0
        while i < len(queue):
            gamma = queue[i]
            i += 1
            for letter in range(self.nletters):
                delta = self.table[gamma][letter]
                if delta is None:
                    continue
                self.table[delta][self._inv(letter)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                existing = self.table[mu][letter]
                if existing is not None:
                    self._merge(queue, nu, existing)
                else:
                    back = self.table[nu][self._inv(letter)]
                    if back is not None:
                        self._merge(queue, mu, back)
                    else:
                        self.table[mu][letter] = nu
                        self.table[nu][self._inv(letter)] = mu

    def scan_and_fill(self, alpha, word):
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j and self.table[f][word[i]] is not None:
                f = self.table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][self._inv(word[j])] is not None:
                b = self.table[b][self._inv(word[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][word[i]] = b
                self.table[b][self._inv(word[i])] = f
                return
            f = self.define(f, word[i])
            i += 1

    def _snapshot(self):
        live = [k for k in range(len(self.table)) if self.rep(k) == k]
        holes = sum(1 for k in live for v in self.table[k] if v is None)
        return len(self.table), len(live), holes

    def run(self):
        for word in self.subgroup_words:
            self.scan_and_fill(0, word)
        while True:
            before = self._snapshot()
            alpha = 0
            while alpha < len(self.table):
                if self.rep(alpha) == alpha:
                    for word in self.relators:
                        if self.rep(alpha) != alpha:
                            break
                        self.scan_and_fill(alpha, word)
                    if self.rep(alpha) == alpha:
                        for letter in range(self.nletters):
                            if self.table[alpha][letter] is None:
                                self.define(alpha, letter)
                alpha += 1
            if self._snapshot() == before:
                break
        live = [k for k in range(len(self.table)) if self.rep(k) == k]
        renumber = {old: new for new, old in enumerate(live)}
        return tuple(
            tuple(renumber[self.rep(self.table[old][letter])]
                  for letter in range(self.nletters))
            for old in live
        )


def reference_enumeration(presentation, subgroup_words=(), cap=100000):
    """Rows of the reference enumeration, checked coset by coset, and N,
    the number of cosets it defined."""
    reference = ReferenceEnumerator(presentation, subgroup_words, cap)
    rows = reference.run()
    table = CosetTable(presentation, tuple(subgroup_words), rows)
    assert all(table.trace(0, word) == 0 for word in subgroup_words)
    assert all(table.trace(coset, word) == coset
               for coset in range(table.index)
               for word in presentation.relators)
    return rows, reference.defined


def reference_rows(presentation, subgroup_words=(), cap=100000):
    """Rows of the reference enumeration, checked coset by coset."""
    return reference_enumeration(presentation, subgroup_words, cap)[0]


def dihedral(n):
    return f"< r s | r^{n}, s^2, s r s r >"


def dicyclic(n):
    return f"< a b | a^{2 * n}, a^{n} b^-2, b^-1 a b a >"


PRODUCT_PRESENTATIONS = (
    "< a b | a^2, b^3, a b a b a b a b >",
    "< a b | a^2, b^3, a b a b a b a b a b >",
    "< a b | a^6, b^4, a b a^-1 b^-1 >",
    "< a b c | a^2, b^2, c^2, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >",
    "< a b c d | a^2, b^3, a b a b, c^2, d^3, c d c d, a c a^-1 c^-1, "
    "a d a^-1 d^-1, b c b^-1 c^-1, b d b^-1 d^-1 >",
    "< a b c | a^2, b^3, a b a b a b a b a b, c^2, a c a^-1 c^-1, "
    "b c b^-1 c^-1 >",
    "< a b c | a^2, b^3, a b a b a b a b, c^3, a c a^-1 c^-1, "
    "b c b^-1 c^-1 >",
    "< a b c | a^4, a^2 b^-2, b^-1 a b a, c^3, a c a^-1 c^-1, "
    "b c b^-1 c^-1 >",
)


def reference_cases():
    """``(presentation, subgroup words)`` pairs of the reference corpus."""
    cases = [(str(get_surface(name).pi1_smooth), ())
             for name in surface_names()]
    cases += [("< a b | a^3, b^2, a b a b >", ("b",)),
              ("< a b | a^2, b^3, a b a b >", ("b",)),
              ("< a b | a^4, a^2 b^-2, b^-1 a b a >", ("b",)),
              ("< a b | a^2, b^3, a b a b a b a b a b >", ("a", "b a b^-1")),
              ("< a b | a^2, b^3, a b a b >", ("a", "b")),
              ("< a | a >", ())]
    cases += [(dihedral(n), ()) for n in range(2, 101)]
    cases += [(dicyclic(n), ()) for n in range(1, 51)]
    cases += [(text, ()) for text in PRODUCT_PRESENTATIONS]
    for text, words in cases:
        p = parse_presentation(text)
        yield p, tuple(parse_word(p, w) for w in words)


def test_coset_tables_match_reference_enumeration():
    for p, words in reference_cases():
        table = coset_enumeration(p, words)
        assert table.index <= 200
        assert table.rows == reference_rows(p, words), (str(p), words)


def assert_cap_point(p, words, rows, defined):
    """``coset_enumeration`` gives the reference rows at cap N, the number
    of cosets the reference enumeration defined, and refuses at cap N - 1
    with the message of that cap."""
    assert coset_enumeration(p, words, cap=defined).rows == rows
    # Coset 0 is not a definition, so a one-coset table is never refused.
    if defined > 1:
        with pytest.raises(CapExceeded) as error:
            coset_enumeration(p, words, cap=defined - 1)
        assert str(error.value) == \
            f"coset enumeration exceeded cap of {defined - 1} cosets"


def test_cap_fires_at_the_reference_definition():
    for p, words in reference_cases():
        assert_cap_point(p, words, *reference_enumeration(p, words))


@pytest.mark.parametrize("text, defined", [
    (dihedral(800), 1600),
    (dicyclic(30), 120),
    ("< a b | a^40, b^40, a b a^-1 b^-1 >", 3044),
])
def test_large_tables_fire_the_cap_at_the_reference_definition(text, defined):
    p = parse_presentation(text)
    rows, n = reference_enumeration(p)
    assert n == defined
    assert_cap_point(p, (), rows, n)


def test_realized_order_matches_closure():
    for p, words in reference_cases():
        table = coset_enumeration(p, words)
        group = permutation_realization(table)
        gens = [Permutation(tuple(row[2 * i] for row in table.rows))
                for i in range(p.rank)]
        closed = permgroup.generate(gens, domain_size=table.index)
        assert len(group) == len(closed), (str(p), words)
        assert group.generators == closed.generators, (str(p), words)
        assert group.elements == closed.elements, (str(p), words)
        assert group.element_list == closed.element_list, (str(p), words)


def count_enumerator_calls(monkeypatch):
    """Count ``_Enumerator``'s ``scan_and_fill`` and ``_closed`` calls from
    now on, in the returned dict."""
    calls = {"scan_and_fill": 0, "_closed": 0}
    for name in calls:
        method = getattr(_Enumerator, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(_Enumerator, name, counted)
    return calls


def test_coset_enumeration_ends_after_one_sweep(monkeypatch):
    calls = count_enumerator_calls(monkeypatch)
    table = coset_enumeration(parse_presentation(dihedral(12)))
    assert table.index == 24
    assert calls["_closed"] == 1
    # Of the 3 * 24 scans of one full sweep, those at cosets already on a
    # closed cycle of r^12, s^2 or (s r)^2 are skipped.
    assert calls["scan_and_fill"] == 26


def test_d800_scans_each_relator_cycle_once(monkeypatch):
    calls = count_enumerator_calls(monkeypatch)
    table = coset_enumeration(parse_presentation(dihedral(800)))
    assert table.index == 1600
    assert calls["_closed"] == 1
    # A sweep that scans every relator at every coset makes 3 * 1600.
    assert calls["scan_and_fill"] <= 2400


# About half the examples are abelian products and half, some 300, are
# random presentations.
@settings(max_examples=600, deadline=None)
@given(st.data())
def test_power_relator_skips_keep_the_reference_rows(data):
    abelian = data.draw(st.booleans())
    rank = 2 if abelian else data.draw(st.integers(1, 3))
    letters = st.sampled_from([k for i in range(1, rank + 1) for k in (i, -i)])
    if abelian:
        # < a b | a^k, b^l, a b a^-1 b^-1 >: the commutator's scans merge
        # cosets that the power relators' scans marked closed, so the
        # marks move to the surviving roots.
        exponents = st.integers(1, 12)
        relators = [(1,) * data.draw(exponents), (2,) * data.draw(exponents),
                    (1, 2, -1, -2)]
    else:
        exponents = st.integers(1, 8)
        # Powers of single generators make finite groups of some size
        # likely, so that the other relators' cycles close and get skipped.
        relators = [(i,) * data.draw(exponents) for i in range(1, rank + 1)
                    if data.draw(st.booleans())]
        relators += [
            tuple(data.draw(st.lists(letters, min_size=1, max_size=4)))
            * data.draw(exponents)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
    p = Presentation(tuple("abc"[:rank]), tuple(relators))
    words = tuple(data.draw(st.lists(
        st.lists(letters, min_size=1, max_size=4).map(tuple), max_size=1)))
    try:
        rows = coset_enumeration(p, words, cap=300).rows
    except CapExceeded:
        with pytest.raises(CapExceeded):
            reference_rows(p, words, cap=300)
    else:
        reference, defined = reference_enumeration(p, words, cap=300)
        assert rows == reference
        cap = data.draw(st.integers(max(defined - 2, 1), defined + 2))
        if cap >= defined:
            assert coset_enumeration(p, words, cap=cap).rows == rows
        else:
            with pytest.raises(CapExceeded) as error:
                coset_enumeration(p, words, cap=cap)
            assert str(error.value) == \
                f"coset enumeration exceeded cap of {cap} cosets"


def test_merged_cycles_are_not_scanned_again(monkeypatch):
    calls = count_enumerator_calls(monkeypatch)
    table = coset_enumeration(
        parse_presentation("< a b | a^40, b^40, a b a^-1 b^-1 >"))
    assert table.index == 1600
    assert calls["_closed"] == 1
    # 80 cycles of a^40 and b^40 close; with the marks left on the cosets
    # that coincidences merge away, 802 power relator scans ran and
    # scan_and_fill was called 2,402 times.
    assert calls["scan_and_fill"] == 1680


def test_triangle_refusal_skips_merged_cycles(monkeypatch):
    calls = count_enumerator_calls(monkeypatch)
    with pytest.raises(CapExceeded):
        coset_enumeration(parse_presentation(
            "< a b | a^2, b^3, a b a b a b a b a b a b >"), cap=4000)
    # 3,187 with the marks left on the cosets merged away.
    assert calls["scan_and_fill"] == 2493


@pytest.mark.parametrize("power", [8, 11])
def test_power_check_products_are_counted(compositions, power):
    table = coset_enumeration(parse_presentation(f"< a | a^{power} >"))
    assert table.index == power
    # Square-and-multiply squares once per binary digit after the leading
    # one and multiplies once per further 1 digit; the power is checked
    # once by the stop rule and once by the final relator check.
    digits = bin(power)[2:]
    products = (len(digits) - 1) + (digits.count("1") - 1)
    assert compositions.count == 2 * products
    assert compositions.points == 2 * products * power


@pytest.mark.parametrize("text", [dihedral(800), dicyclic(30),
                                  "< a b | a^40, b^40, a b a^-1 b^-1 >"])
def test_large_coset_tables_match_reference_enumeration(text):
    p = parse_presentation(text)
    assert coset_enumeration(p).rows == reference_rows(p)


@pytest.mark.parametrize("text", [
    "< a b | a^3, b^3, a b a b a b >",
    "< a b | a^2, b^3, a b a b a b a b a b a b >",
    "< a b | a^2, b^4, a b a b a b a b >",
])
def test_triangle_groups_refuse_at_the_coset_cap(text):
    with pytest.raises(CapExceeded) as error:
        coset_enumeration(parse_presentation(text), cap=4000)
    assert str(error.value) == "coset enumeration exceeded cap of 4000 cosets"


def test_columns_grow_in_chunks_within_the_cap():
    enumerator = _Enumerator(parse_presentation("< a b | >"), (), 50)
    with pytest.raises(CapExceeded):
        enumerator.run()
    assert len(enumerator.parent) == 50
    assert len(enumerator.cols) == 4
    assert all(len(col) <= 50 for col in enumerator.cols)
    # A large cap does not size the table: the columns double as cosets
    # get defined, so they stay within twice the number defined.
    enumerator = _Enumerator(parse_presentation(dihedral(12)), (), 10 ** 7)
    assert len(enumerator.run()) == 24
    assert len(enumerator.parent) == 24
    assert all(len(col) <= 2 * 24 for col in enumerator.cols)


def test_triangle_refusal_memory_is_column_sized():
    # tracemalloc peak of the (2,3,6) refusal at cap 4000 on Python 3.11.7:
    # 832,746 bytes with one list per coset (rows of 4 entries), 580,470
    # with the column-major table.  The bound sits between the two.
    p = parse_presentation("< a b | a^2, b^3, a b a b a b a b a b a b >")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(CapExceeded):
            coset_enumeration(p, cap=4000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 700_000


def test_permutation_realization_is_regular_for_trivial_subgroup():
    p = parse_presentation("< a b | a^2, b^3, a b a b >")
    table = coset_enumeration(p)
    group = permutation_realization(table)
    assert len(group) == 6
    assert not group.is_abelian()
    assert permgroup.commutator_subgroup(group).order == 3


def test_realization_closes_a_nonregular_action(monkeypatch):
    closures = []
    generate = permgroup.generate

    def counted(*args, **kwargs):
        group = generate(*args, **kwargs)
        closures.append(len(group))
        return group

    monkeypatch.setattr(permgroup, "generate", counted)
    p = parse_presentation("< a b | a^3, b^2, a b a b >")
    table = coset_enumeration(p, (parse_word(p, "b"),))
    assert table.index == 3
    gens = [Permutation(tuple(row[2 * i] for row in table.rows))
            for i in range(p.rank)]
    assert not permgroup.is_regular(gens, 3)
    group = permutation_realization(table)
    assert closures == [6]
    assert len(group) == 6
    assert len(group.elements) == 6


def test_realization_certifies_d800_without_closing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the realization closed a regular action")

    monkeypatch.setattr(permgroup, "generate", refuse)
    table = coset_enumeration(parse_presentation(dihedral(800)))
    group = permutation_realization(table)
    assert len(group) == group.order == 1600
    assert "elements" not in vars(group)
    with pytest.raises(CapExceeded, match="group closure exceeded cap of 1000 "
                                          "elements"):
        permutation_realization(table, cap=1000)


def test_certified_order_is_checked_when_elements_are_listed():
    cycle = Permutation(tuple((x + 1) % 6 for x in range(6)))
    with pytest.raises(HomomorphismFailure,
                       match="^the generators do not close to the certified "
                             "order 3$"):
        permgroup.Group(6, (cycle,), 3).elements
    with pytest.raises(HomomorphismFailure,
                       match="^the generators do not close to the certified "
                             "order 6$"):
        permgroup.Group(6, (cycle * cycle,), 6).elements
    assert permgroup.Group(6, (cycle,), 6).elements == \
        permgroup.generate((cycle,)).elements


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_relators_checked_at_period_cost(data):
    n = data.draw(st.integers(1, 12))
    points = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    columns = tuple(
        tuple(data.draw(st.one_of(st.permutations(range(n)), points)))
        for _ in range(4)
    )
    root = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=6)))
    power = data.draw(st.integers(1, 12))
    cosets = tuple(range(n))
    assert _fixes_all(columns, cosets, root, power) == \
        (_trace_all(columns, cosets, root * power) == cosets)
    word = root * power
    period, repeats = _power_root(word)
    assert period * repeats == word and repeats % power == 0


def permutes_with_cycles_dividing(columns, cosets, root, power):
    """Oracle for ``_fixes_all``: the traced map of ``root`` permutes
    ``cosets`` and each of its cycle lengths divides ``power``."""
    image = {}
    for start in cosets:
        coset = start
        for letter in root:
            coset = columns[letter][coset]
        image[start] = coset
    if sorted(image.values()) != list(cosets):
        return False
    for start in cosets:
        length, coset = 1, image[start]
        while coset != start:
            length, coset = length + 1, image[coset]
        if power % length:
            return False
    return True


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_power_check_matches_the_cycle_oracle(data):
    n = data.draw(st.integers(1, 12))
    # A sorted set of live cosets: all of range(n), a prefix of it, or
    # any nonempty subset.
    kind = data.draw(st.sampled_from(("all", "prefix", "subset")))
    if kind == "all":
        cosets = tuple(range(n))
    elif kind == "prefix":
        cosets = tuple(range(data.draw(st.integers(1, n))))
    else:
        cosets = tuple(sorted(data.draw(
            st.sets(st.integers(0, n - 1), min_size=1))))
    others = tuple(c for c in range(n) if c not in cosets)
    # Half the examples trace only maps that permute the cosets, so that
    # the cycle lengths decide; the others may leave them or collapse.
    keep = data.draw(st.booleans())
    columns = []
    for _ in range(4):
        shape = "block" if keep else data.draw(
            st.sampled_from(("block", "permutation", "map")))
        if shape == "block":
            image = dict(zip(cosets, data.draw(st.permutations(cosets))))
            image.update(zip(others, data.draw(st.permutations(others))))
            columns.append(tuple(map(image.__getitem__, range(n))))
        elif shape == "permutation":
            columns.append(tuple(data.draw(st.permutations(range(n)))))
        else:
            columns.append(tuple(data.draw(st.lists(
                st.integers(0, n - 1), min_size=n, max_size=n))))
    root = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=6)))
    power = data.draw(st.one_of(st.integers(1, 60),
                                st.sampled_from((12, 24, 30, 60))))
    assert _fixes_all(columns, cosets, root, power) == \
        permutes_with_cycles_dividing(columns, cosets, root, power)


def test_subgroups_of_abelian_counts():
    assert len(subgroups_of_abelian(AbelianInvariants(0, ()))) == 1
    assert len(subgroups_of_abelian(AbelianInvariants(0, (2, 2)))) == 5
    assert len(subgroups_of_abelian(AbelianInvariants(0, (4,)))) == 3
    assert len(subgroups_of_abelian(AbelianInvariants(0, (6,)))) == 4
    assert len(subgroups_of_abelian(AbelianInvariants(0, (2, 4)))) == 8


def regular_model(table):
    mul = table.mul
    gens = tuple(
        permgroup.Permutation(tuple(mul(g, x) for x in range(table.order)))
        for g in table.small_generating_set()
    )
    return permgroup.generate(gens, domain_size=max(table.order, 1))


def test_subgroups_of_abelian_match_permutation_enumeration():
    for torsion in ((2, 2), (4,), (6,), (2, 4), (8,), (3, 3)):
        structured = subgroups_of_abelian(AbelianInvariants(0, torsion))
        brute = permgroup.subgroups(regular_model(abelian_table(torsion)))
        assert len(structured) == len(brute), torsion
        assert sorted(s.order for s in structured) == \
            sorted(g.order for g in brute), torsion


def test_abelian_subgroup_quotients():
    subs = subgroups_of_abelian(AbelianInvariants(0, (4,)))
    by_order = {sub.order: sub for sub in subs}
    assert by_order[1].quotient == AbelianInvariants(0, (4,))
    assert by_order[2].quotient == AbelianInvariants(0, (2,))
    assert by_order[4].quotient == AbelianInvariants(0, ())
    for sub in subs:
        assert sub.order * sub.index == 4


def reference_subgroups(moduli):
    """The enumeration that preceded the Hermite one: close a subgroup for
    every (subgroup, element) pair, read each subgroup's invariants off a
    validated Cayley table and the quotient's off the Smith form of the
    ambient relations stacked over the subgroup's elements."""
    k = len(moduli)
    zero = (0,) * k

    def add(u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, moduli))

    def closure(gens):
        members = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    def table_invariants(ordered):
        if len(ordered) == 1:
            return ()
        index_of = {e: i for i, e in enumerate(ordered)}
        rows = tuple(
            tuple(index_of[add(a, b)] for b in ordered) for a in ordered
        )
        return GroupTable(rows).abelian_invariants()

    found = {frozenset({zero}): ()}
    queue = [frozenset({zero})]
    everything = list(itertools.product(*[range(d) for d in moduli]))
    while queue:
        current = queue.pop()
        for x in everything:
            if x not in current:
                ext_gens = found[current] + (x,)
                ext = closure(ext_gens)
                if ext not in found:
                    found[ext] = ext_gens
                    queue.append(ext)
    out = []
    for members in found:
        ordered = tuple(sorted(members))
        rows = [[moduli[i] if i == j else 0 for j in range(k)]
                for i in range(k)]
        rows.extend(list(v) for v in ordered)
        torsion = tuple(d for d in smith_invariant_factors(rows) if d > 1) \
            if k else ()
        out.append((ordered, table_invariants(ordered),
                    AbelianInvariants(0, torsion)))
    out.sort(key=lambda row: (len(row[0]), row[0]))
    return out


@pytest.mark.parametrize("moduli", [
    (), (2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (12,),
    (4, 4), (2, 2, 4), (2, 2, 2, 2),
], ids=str)
def test_subgroups_of_abelian_match_reference_enumeration(moduli):
    subs = subgroups_of_abelian(AbelianInvariants(0, moduli))
    assert [(s.elements, s.invariants, s.quotient) for s in subs] == \
        reference_subgroups(moduli)
    for sub in subs:
        assert len(sub.generators) <= len(moduli)
        assert all(any(g) for g in sub.generators)
        assert set(sub.generators) <= set(sub.elements)


def gaussian_binomial(n, k, p):
    top = math.prod(p ** n - p ** i for i in range(k))
    return top // math.prod(p ** k - p ** i for i in range(k))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def rank_two_count(p, m, n):
    """Subgroups of Z_{p^m} x Z_{p^n} for m <= n (Toth, "Subgroups of
    finite abelian groups having rank two via Goursat's lemma", 2014)."""
    top = ((n - m + 1) * p ** (m + 2) - (n - m - 1) * p ** (m + 1)
           - (m + n + 3) * p + (m + n + 1))
    return top // (p - 1) ** 2


def subgroup_count(moduli):
    return len(subgroups_of_abelian(AbelianInvariants(0, moduli)))


def partitions_within(bound):
    """The partitions mu with mu_j <= bound_j for every part (``bound`` a
    partition, largest part first): the types of subgroups of a p-group of
    type ``bound``."""
    if not bound:
        return [()]
    out = []
    for first in range(bound[0], -1, -1):
        out += [(first,) + rest if first else ()
                for rest in partitions_within(
                    tuple(min(b, first) for b in bound[1:]))
                if first or not rest]
    return out


def conjugate(partition, length):
    """mu'_1, ..., mu'_length: mu'_i counts the parts of at least i."""
    return [sum(1 for part in partition if part >= i)
            for i in range(1, length + 1)]


def birkhoff_count(p, lam, mu):
    """Subgroups of type mu in an abelian p-group of type lam: the product
    over i of p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1),
    mu'_i - mu'_(i+1)]_p (Birkhoff 1935; Butler, Subgroup Lattices and
    Symmetric Functions, Mem. AMS 539, 1994)."""
    top = lam[0] if lam else 0
    lc, mc = conjugate(lam, top), conjugate(mu, top + 1)
    count = 1
    for i in range(top):
        count *= p ** (mc[i + 1] * (lc[i] - mc[i])) * gaussian_binomial(
            lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
    return count


def abelian_types(order):
    """Every abelian group of ``order``, as its primes and their types."""
    primes = [(p, e) for p in range(2, order + 1)
              if all(p % q for q in range(2, p)) and order % p == 0
              for e in [max(e for e in range(1, order.bit_length() + 1)
                            if order % p ** e == 0)]]
    for lams in itertools.product(*[
            [lam for lam in partitions_within((e,) * e) if sum(lam) == e]
            for _, e in primes]):
        yield [(p, lam) for (p, _), lam in zip(primes, lams)]


def invariant_chain(typed):
    """The invariant factors of the group with p-types ``typed``."""
    return _invariant_chain([[p ** part for part in lam] for p, lam in typed])


def test_subgroup_types_match_the_birkhoff_count():
    # The count is multiplicative over the Sylow parts, and G/H has the
    # type of the annihilator of H in the dual group, which is isomorphic
    # to G, so the quotient types are counted by the same formula.
    groups = 0
    for order in range(1, 101):
        for typed in abelian_types(order):
            want = collections.Counter()
            for mus in itertools.product(
                    *[partitions_within(lam) for _, lam in typed]):
                want[invariant_chain(list(zip([p for p, _ in typed], mus)))] \
                    += math.prod(birkhoff_count(p, lam, mu)
                                 for (p, lam), mu in zip(typed, mus))
            subs = subgroups_of_abelian(
                AbelianInvariants(0, invariant_chain(typed)))
            assert collections.Counter(s.invariants for s in subs) == want
            assert collections.Counter(s.quotient.torsion for s in subs) \
                == want
            groups += 1
    assert groups == 185


def test_subgroup_counts_match_closed_forms():
    for p, n, total in ((2, 4, 67), (3, 3, 28), (2, 5, 374)):
        assert subgroup_count((p,) * n) == total == \
            sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    assert subgroup_count((600,)) == divisor_count(600) == 24
    parts = (2, 9, 5)
    assert subgroup_count((90,)) == math.prod(map(divisor_count, parts)) \
        == math.prod(map(subgroup_count, [(q,) for q in parts])) == 12
    assert subgroup_count((8, 8)) == rank_two_count(2, 3, 3) == 37
    for p, m, n in ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 3)):
        assert subgroup_count((p ** m, p ** n)) == rank_two_count(p, m, n)
