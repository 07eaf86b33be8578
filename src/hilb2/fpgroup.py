"""Finitely presented groups made effective.

Four ingredients, all exact over the integers:

* a parser for presentation strings ``< a b | a^2, b^3, a b a b >``;
* abelianization through Smith normal form of the relator exponent matrix,
  with a deterministic smallest-pivot reduction over arbitrary-precision
  integers;
* coset enumeration (relator-tracing style with immediate coincidence
  handling and a hard coset cap) that turns a finite-index subgroup into a
  concrete permutation action on its cosets.
* subgroup enumeration of finite abelian groups through the Hermite
  normal forms of the lattices between the relation lattice and Zᵏ.

Together these let the rest of the package move between presentations,
abelian invariants and honest permutation groups.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
import itertools
from math import gcd, prod
from operator import eq, itemgetter, mod, ne

from . import permgroup
from .errors import (
    CapExceeded,
    HomomorphismFailure,
    IncompleteTable,
    InfiniteGroup,
    PresentationSyntaxError,
    UnknownGenerator,
)
from .permgroup import Group, Permutation
from .tables import _closure, _invariant_chain, _prime_factorization

DEFAULT_COSET_CAP = 100000

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | set("0123456789")


def _check_letters(words, rank: int) -> None:
    """Refuse a letter that names no generator of a rank-``rank`` group."""
    for word in words:
        for letter in word:
            if letter == 0 or abs(letter) > rank:
                raise ValueError(f"letter {letter} is out of range")


@dataclass(frozen=True)
class Presentation:
    """A group presentation: generator names plus relator words.

    Words are tuples of nonzero letters: letter ``+(i+1)`` is generator
    ``i`` and ``-(i+1)`` its inverse.
    """

    generator_names: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.generator_names)
        if len(set(self.generator_names)) != n:
            raise ValueError("duplicate generator names")
        _check_letters(self.relators, n)

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    def word_to_string(self, word) -> str:
        parts = []
        for letter, run in itertools.groupby(word):
            k = len(list(run)) * (1 if letter > 0 else -1)
            name = self.generator_names[abs(letter) - 1]
            parts.append(name if k == 1 else f"{name}^{k}")
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:
        gens = " ".join(self.generator_names)
        rels = ", ".join(self.word_to_string(w) for w in self.relators)
        return f"< {gens} | {rels} >"


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus invariant torsion factors d1 | d2 | ... (each >= 2)."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors are at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must divide in turn: {self.torsion}"
                )

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise InfiniteGroup("infinite abelian group has no order")
        return prod(self.torsion) if self.torsion else 1


@dataclass(frozen=True)
class CosetTable:
    """A complete coset table for a subgroup of a presented group.

    ``rows[c]`` lists, for coset ``c``, the targets under every letter:
    column ``2*i`` is generator ``i`` and column ``2*i + 1`` its inverse.
    ``columns[l]`` is column ``l`` of the rows, kept once so that the
    relator check composes whole columns and the realization reads each
    generator's permutation as it stands.
    """

    presentation: Presentation
    subgroup_words: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(zip(*self.rows)))

    @property
    def index(self) -> int:
        return len(self.rows)

    def step(self, coset: int, letter: int) -> int:
        """Apply one signed generator letter to a coset index."""
        if letter > 0:
            return self.rows[coset][2 * (letter - 1)]
        return self.rows[coset][2 * (-letter - 1) + 1]

    def trace(self, coset: int, word) -> int:
        for letter in word:
            coset = self.step(coset, letter)
        return coset


class _Parser:
    """Recursive-descent parser for the presentation grammar.

    Whitespace is ignored everywhere.  Inside words, generator names are
    matched greedily against the declared names, so ``abab`` and
    ``a b a b`` read the same.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PresentationSyntaxError:
        return PresentationSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a generator name")
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_BODY:
            self.pos += 1
        return self.text[start:self.pos]

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected an integer exponent")
        return int(self.text[start:self.pos])

    def match_generator(self, names: tuple[str, ...]) -> int:
        """Longest declared name starting at the cursor, or raise."""
        self.skip_ws()
        best = None
        for i, name in enumerate(names):
            if self.text.startswith(name, self.pos):
                if best is None or len(name) > len(names[best]):
                    best = i
        if best is None:
            if self.pos < len(self.text) and self.text[self.pos] in _NAME_START:
                position = self.pos
                raise UnknownGenerator(self.read_name(), position)
            raise self.error("expected a generator name")
        self.pos += len(names[best])
        return best

    def read_word(self, names: tuple[str, ...]) -> tuple[int, ...]:
        letters: list[int] = []
        while self.peek() not in (",", ">", ""):
            index = self.match_generator(names)
            exponent = 1
            if self.peek() == "^":
                self.pos += 1
                exponent = self.read_int()
            letter = index + 1 if exponent >= 0 else -(index + 1)
            letters.extend([letter] * abs(exponent))
        if not letters:
            raise self.error("empty word")
        return tuple(letters)

    def parse(self) -> Presentation:
        self.expect("<")
        names: list[str] = []
        while self.peek() not in ("|", ""):
            name = self.read_name()
            if name in names:
                raise self.error(f"duplicate generator {name!r}")
            names.append(name)
        self.expect("|")
        names_t = tuple(names)
        relators: list[tuple[int, ...]] = []
        if self.peek() != ">":
            relators.append(self.read_word(names_t))
            while self.peek() == ",":
                self.pos += 1
                relators.append(self.read_word(names_t))
        self.expect(">")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after '>'")
        return Presentation(names_t, tuple(relators))


def parse_presentation(text: str) -> Presentation:
    """Parse ``< g1 g2 ... | w1, w2, ... >`` into a :class:`Presentation`."""
    return _Parser(text).parse()


def parse_word(presentation: Presentation, text: str) -> tuple[int, ...]:
    """Parse a single word in the generators of an existing presentation."""
    parser = _Parser(text)
    word = parser.read_word(presentation.generator_names)
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after word")
    return word


def smith_invariant_factors(matrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix.

    Deterministic reduction: at each step the entry of smallest nonzero
    absolute value (ties broken by position) becomes the pivot, rows and
    columns are reduced against it, and once the matrix is diagonal the
    divisibility chain is enforced with gcd/lcm fix-ups.  Exact integer
    arithmetic throughout.  Returns ``min(rows, cols)`` nonnegative entries,
    zeros included.
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    size = min(nrows, ncols)
    diag = []
    top = 0
    while top < size:
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(m[i][j])
                if v and (pivot is None or v < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                q = m[i][top] // p
                if q:
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                if m[i][top]:
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, ncols):
                q = m[top][j] // p
                if q:
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                if m[top][j]:
                    for i in range(nrows):
                        m[i][top], m[i][j] = m[i][j], m[i][top]
                    dirty = True
                    break
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    diag.extend([0] * (size - len(diag)))
    # Enforce d1 | d2 | ... with the standard gcd/lcm exchange.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
            elif a == 0 and b != 0:
                diag[i], diag[j] = b, 0
    return tuple(diag)


def abelianization(presentation: Presentation) -> AbelianInvariants:
    """Abelian invariants from the relator exponent-sum matrix."""
    n = presentation.rank
    rows = []
    for word in presentation.relators:
        row = [0] * n
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    if not rows or n == 0:
        return AbelianInvariants(rank=n, torsion=())
    diag = smith_invariant_factors(rows)
    nonzero = [d for d in diag if d != 0]
    return AbelianInvariants(
        rank=n - len(nonzero),
        torsion=tuple(d for d in nonzero if d > 1),
    )


def _columns_word(word) -> tuple[int, ...]:
    """A signed word as table columns: ``2*i`` for generator ``i``, ``2*i + 1``
    for its inverse."""
    return tuple(
        2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
        for letter in word
    )


def _trace_all(columns, cosets: tuple[int, ...], word) -> tuple[int, ...]:
    """Where ``word`` takes each of ``cosets``, traced for all at once.

    ``columns[l][c]`` is the coset that letter ``l`` sends coset ``c`` to;
    each letter of ``word`` is one ``itemgetter`` pass over the current
    images, which composes the columns instead of stepping coset by coset.
    """
    if len(cosets) == 1:
        # itemgetter returns a bare item for one index.
        (coset,) = cosets
        for letter in word:
            coset = columns[letter][coset]
        return (coset,)
    for letter in word:
        cosets = itemgetter(*cosets)(columns[letter])
    return cosets


def _power_root(word) -> tuple[tuple[int, ...], int]:
    """``(u, m)`` with ``word`` equal to ``u`` repeated ``m`` times and
    ``u`` as short as possible."""
    length = len(word)
    for period in range(1, length):
        if length % period == 0 and word == word[:period] * (length // period):
            return tuple(word[:period]), length // period
    return tuple(word), 1


def _fixes_all(columns, cosets: tuple[int, ...], root, power: int) -> bool:
    """True iff ``root`` repeated ``power`` times brings each of ``cosets``
    back to itself.

    ``cosets`` is sorted.  Only ``root`` is traced, at period cost rather
    than ``power`` times over.  Its images are renamed to positions in
    ``cosets`` (no renaming is needed when ``cosets`` is ``range(n)``), a
    map that leaves ``cosets`` or is not a bijection is refused, and the
    permutation p left is raised to ``power`` by square-and-multiply, each
    product one pass of a map that :func:`permgroup._right_multiplication`
    builds.  This is the predicate "p permutes
    ``cosets`` and every cycle length of p divides ``power``": p^m is the
    identity exactly then, and a map that is not a permutation of
    ``cosets`` has no power equal to the identity.
    """
    images = _trace_all(columns, cosets, root)
    n = len(cosets)
    # A map of one coset is a permutation exactly when it fixes it.
    if power == 1 or n == 1:
        return images == cosets
    if cosets[-1] != n - 1:
        position = dict(zip(cosets, range(n)))
        images = tuple(map(position.get, images))
        if None in images:
            return False
    elif max(images) >= n:
        return False
    if len(set(images)) != n:
        return False
    right = permgroup._right_multiplication
    result = None
    while True:
        if power & 1:
            result = images if result is None else right(result)(images)
        power >>= 1
        if not power:
            return result == tuple(range(n))
        images = right(images)(images)


class _Enumerator:
    """Coset enumeration by relator tracing (the HLT strategy of Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 5).

    Visits the live cosets in order and scans each relator at each of them,
    defining new cosets whenever a scan stalls and processing coincidences
    immediately through a union-find merge queue.  A hard cap bounds the
    total number of cosets ever defined.

    The table is stored column-major: ``cols[l][c]`` is the coset that
    letter ``l`` sends coset ``c`` to, or ``None``, and letter ``l ^ 1`` is
    the inverse of ``l``.  ``__init__`` resolves every word once into the
    tuple of the column lists it reads and the tuple of their inverse
    columns, so tracing one letter is one subscript.  ``parent`` has one
    entry per coset ever defined, which is the count the cap reads; the
    columns grow ahead of it in doubling chunks, never past
    ``max(cap, 1)`` entries, and every entry past the last defined coset
    is ``None``.

    A scan is skipped where it cannot do anything.  After a power relator
    u^m (m > 1) has been scanned at a coset alpha that is still live, the
    walk of u^m from alpha is fully defined and returns to alpha (the scan
    completed it, and coincidence processing keeps every defined entry as
    an entry between representatives).  The cosets alpha·u^k it passes at
    every |u|-th step are marked closed for that relator:

    * the walk of u^m from alpha·u^k is the same closed, fully defined
      cycle, rotated, so a scan there would define nothing, deduce nothing
      and merge nothing;
    * coincidence processing maps a closed, defined walk onto one at the
      representative, so a mark stays true for every coset that stays
      live, and a coset merged away is never scanned again anyway;
    * the mark also moves to the surviving root: at each union of a root
      b into a root a, :meth:`coincidence` adds a to every set that holds
      b.  Once its queue is empty, each defined step c -> c' of b's walk
      is a defined step rep(c) -> rep(c') (an entry of a merged-away
      coset is moved to its representative or its target's class is
      united with the one already there, never dropped), so the walk of
      u^m from rep(b) = a is the image of b's walk: fully defined and
      back at a.  A scan at a would define, deduce and merge nothing,
      exactly as one at b would have.  Marks are read only between
      coincidences, so a mark held by a class's root is true whenever it
      is read.

    Skipping only scans that would change nothing leaves the HLT definition
    order as it is: the rows equal those of an enumeration that scans every
    relator at every live coset, and the cap refuses at the same point with
    the same message.

    Stop rule: a pass that leaves a hole is followed by another pass.  After
    a pass that leaves none, every relator is traced through every live
    coset at once by composing the table's columns; the sweep stops when
    each relator brings every coset back to itself.  A further pass would
    then scan each relator to completion without defining, deducing or
    merging anything, so the table is the one it would leave.  A relator
    u^m is traced as u alone (see :func:`_fixes_all`).  Every mark is
    cleared before another pass, so the stop rule, not the skip, decides
    when the enumeration ends.

    Coincidences go through a union-find forest on ``parent`` whose root
    is always the least coset of its class.  :meth:`coincidence` inlines
    the path-halving find and the union, so moving an entry costs no
    Python call; it visits the queue and unites classes in the order of a
    merge-per-call version, so liveness and rows are the same.

    The finished table is renumbered at C level: each column is picked at
    the live cosets by one ``itemgetter``.  If a coset was merged away,
    one list sends every defined coset to the new index of its
    representative (the rank of a live coset among the live ones, ``rep``
    being called only for dead cosets), and each picked column is
    relabelled by one ``map`` through that list.
    """

    _FIRST_CHUNK = 16

    def __init__(self, presentation: Presentation, subgroup_words, cap: int):
        self.cap = cap
        self.size = max(1, min(cap, self._FIRST_CHUNK))
        cols: list[list[int | None]] = [
            [None] * self.size for _ in range(2 * presentation.rank)
        ]
        inv_of = [cols[letter ^ 1] for letter in range(len(cols))]
        self.cols = cols
        # (column, inverse column) of every letter, in letter order.
        self.pairs = list(zip(cols, inv_of))
        self.parent = [0]
        column_of, inverse_of = cols.__getitem__, inv_of.__getitem__

        def walk(letters):
            return (tuple(map(column_of, letters)),
                    tuple(map(inverse_of, letters)))

        relators = [_columns_word(w) for w in presentation.relators]
        self.powers = [_power_root(letters) for letters in relators]
        # One set of closed cosets per relator; see the class docstring.
        self.scans = [
            (walk(letters), tuple(map(column_of, root)), power, set())
            for letters, (root, power) in zip(relators, self.powers)
        ]
        # The sets that marks are written to, those of the power relators.
        self.marks = [scan[3] for scan in self.scans if scan[2] > 1]
        self.subgroup_walks = [walk(_columns_word(w)) for w in subgroup_words]

    def rep(self, k: int) -> int:
        parent = self.parent
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    def define(self, alpha: int, col: list, inv: list) -> int:
        """Define coset beta = ``col[alpha]``, with ``inv[beta] = alpha``."""
        beta = len(self.parent)
        if beta >= self.cap:
            raise CapExceeded(
                f"coset enumeration exceeded cap of {self.cap} cosets"
            )
        if beta == self.size:
            grown = min(2 * self.size, self.cap)
            for column in self.cols:
                column.extend([None] * (grown - self.size))
            self.size = grown
        self.parent.append(beta)
        col[alpha] = beta
        inv[beta] = alpha
        return beta

    def coincidence(self, a: int, b: int) -> None:
        """Merge the classes of ``a`` and ``b`` and every class their rows
        force together, moving each entry of a merged-away coset onto its
        representative."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return
        if b < a:
            a, b = b, a
        parent[b] = a
        marks = self.marks
        for closed in marks:
            if b in closed:
                closed.add(a)
        queue = [b]
        # The loop also visits the cosets appended to queue as it runs.
        for gamma in queue:
            for col, inv in self.pairs:
                delta = col[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                mu = gamma
                while parent[mu] != mu:
                    parent[mu] = mu = parent[parent[mu]]
                nu = delta
                while parent[nu] != nu:
                    parent[nu] = nu = parent[parent[nu]]
                # Unite x's class with y's, or fill the entry mu -> nu.
                y = col[mu]
                if y is not None:
                    x = nu
                else:
                    y = inv[nu]
                    if y is None:
                        col[mu] = nu
                        inv[nu] = mu
                        continue
                    x = mu
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    if y < x:
                        x, y = y, x
                    parent[y] = x
                    for closed in marks:
                        if y in closed:
                            closed.add(x)
                    queue.append(y)

    def scan_and_fill(self, alpha: int, walk) -> None:
        """Scan a word at ``alpha`` from both ends, filling it in.

        ``walk`` is the word's columns and the inverse column of each.
        """
        word, inverse = walk
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j:
                nxt = word[i][f]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                nxt = inverse[j][b]
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                word[i][f] = b
                inverse[i][b] = f
                return
            f = self.define(f, word[i], inverse[i])
            i += 1

    def _closed(self, live: tuple[int, ...]) -> bool:
        """True iff the live cosets have no hole and every relator brings
        every live coset back to itself.

        Coincidence processing clears every entry that points to a coset it
        merges away, so live cosets only point to live cosets.
        """
        cols = self.cols
        if any(None in map(col.__getitem__, live) for col in cols):
            return False
        return all(_fixes_all(cols, live, root, power)
                   for root, power in self.powers)

    def run(self) -> list[tuple[int, ...]]:
        for walk in self.subgroup_walks:
            self.scan_and_fill(0, walk)
        # parent[k] == k exactly when coset k is live.
        parent = self.parent
        # A late coincidence can reopen entries in cosets that were already
        # processed, so one pass is not always enough.
        while True:
            for scan in self.scans:
                scan[3].clear()
            alpha = 0
            while alpha < len(parent):
                if parent[alpha] == alpha:
                    for walk, root, power, closed in self.scans:
                        if alpha in closed:
                            continue
                        if parent[alpha] != alpha:
                            break
                        self.scan_and_fill(alpha, walk)
                        if power > 1 and parent[alpha] == alpha:
                            # Mark alpha·u^k closed for 0 < k < m.
                            beta = alpha
                            for _ in range(power - 1):
                                for col in root:
                                    beta = col[beta]
                                closed.add(beta)
                    if parent[alpha] == alpha:
                        for col, inv in self.pairs:
                            if col[alpha] is None:
                                self.define(alpha, col, inv)
                alpha += 1
            defined = range(len(parent))
            live = tuple(itertools.compress(defined, map(eq, parent, defined)))
            if self._closed(live):
                break
        # With no coset merged away the cosets are numbered already.
        merged = len(live) < len(parent)
        if merged:
            # renumber[k] is the new index of k's representative: the
            # number of live cosets before it.  Coset 0 is always live.
            renumber = list(itertools.accumulate(
                map(eq, parent[1:], defined[1:]), initial=0))
            for k in itertools.compress(defined, map(ne, parent, defined)):
                renumber[k] = renumber[self.rep(k)]
        # itemgetter returns a bare item for one index; the one live coset
        # is then coset 0, which the slice picks as a list.
        pick = itemgetter(*live) if len(live) > 1 else itemgetter(slice(1))
        columns = []
        for col in self.cols:
            targets = pick(col)
            if None in targets:
                raise IncompleteTable("enumeration left an undefined entry")
            if merged:
                targets = tuple(map(renumber.__getitem__, targets))
            columns.append(targets)
        # A rank-0 presentation has no columns and its one coset.
        return list(zip(*columns)) if columns else [()]


def coset_enumeration(presentation: Presentation, subgroup_words=(),
                      cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup_words``.

    Raises :class:`CapExceeded` if more than ``cap`` cosets get defined,
    which is also the only way an infinite-index enumeration can end.
    The returned table is complete and verified: every relator traces to
    the identity at every coset and every subgroup word fixes coset 0,
    or :class:`HomomorphismFailure` is raised.
    """
    subgroup_words = tuple(tuple(w) for w in subgroup_words)
    _check_letters(subgroup_words, presentation.rank)
    rows = _Enumerator(presentation, subgroup_words, cap).run()
    table = CosetTable(presentation, subgroup_words, tuple(map(tuple, rows)))
    for word in subgroup_words:
        if table.trace(0, word) != 0:
            raise HomomorphismFailure("subgroup word moved coset 0")
    cosets = tuple(range(table.index))
    for word in presentation.relators:
        if not _fixes_all(table.columns, cosets,
                          *_power_root(_columns_word(word))):
            raise HomomorphismFailure("relator moved a coset")
    return table


def permutation_realization(table: CosetTable, *,
                            cap: int = permgroup.DEFAULT_ELEMENT_CAP) -> Group:
    """The image of the presented group acting on the cosets.

    Generator ``i`` becomes the permutation ``coset -> coset * g_i``, which
    is the table's column ``2*i`` as it stands; a column that is not a
    bijection raises :class:`IncompleteTable`.  The action is transitive, so the image G has order at least the index n.
    Its order is certified without listing it whenever the centralizer of
    G in Sym(n) is transitive as well (:func:`permgroup.is_regular`): an
    element commuting with G and taking coset a to coset b makes every
    element that fixes a fix b, so a transitive centralizer leaves the
    stabilizer of a coset trivial and |G| = n.  This holds over the trivial
    subgroup and over every normal subgroup; the elements are then listed
    only if they are read.  Otherwise G is closed element by element.
    Either way :class:`CapExceeded` is raised when |G| exceeds ``cap``.
    """
    n = table.index
    perms = []
    for i in range(table.presentation.rank):
        images = table.columns[2 * i]
        if len(set(images)) != n:
            raise IncompleteTable(f"generator {i} does not act bijectively")
        perms.append(Permutation(images))
    n, gens = permgroup.generating_tuple(perms, max(n, 1))
    if not permgroup.is_regular(gens, n):
        return permgroup.generate(gens, domain_size=n, cap=cap)
    if n > cap:
        raise CapExceeded(f"group closure exceeded cap of {cap} elements")
    return Group(n, gens, n)


@dataclass(frozen=True)
class AbelianSubgroup:
    """A subgroup H of a finite abelian group G, read off its Hermite basis.

    Elements are exponent vectors relative to the ambient invariant
    factors n.  ``basis`` is the Hermite basis B of the lattice L with
    H = L/diag(n)·Zᵏ and ``coords`` the matrix C with diag(n) = C·B (see
    :func:`_hermite_bases`).  ``order`` is |G| / ∏ diag(B) and
    ``quotient`` describes G/H = Zᵏ/L, the deck group of the cover the
    subgroup classifies.  ``generators`` (the nonzero rows of B reduced
    modulo n, at most one per factor), ``elements`` (the closure of the
    generators, sorted) and ``invariants`` (H's own invariant factors,
    those of Zᵏ/C·Zᵏ) are computed on first read, and the last two are
    checked against ``order`` then.
    """

    ambient: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, ...], ...]
    order: int
    quotient: AbelianInvariants

    @cached_property
    def index(self) -> int:
        return self.quotient.order

    @property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """Sorts subgroups of one order as their sorted element lists do.

        Sorted lists of equal length compare at the least element of the
        two sets' symmetric difference, the list holding it first; order
        any two sets that way.  Tuples with first coordinate 0 come first,
        and those of H form H_1, whose Hermite basis is B below row 0.  So
        H and H' compare as H_1 and H'_1 unless those are equal; then by
        d_0, the least nonzero first coordinate (the smaller one holds an
        element the other lacks); then, at first coordinate d_0, by the
        cosets t + H_1 of the two row tails, whose least elements are the
        tails themselves, as B's entries above each diagonal entry d_j lie
        in range(d_j).  By induction, B's rows compared from the bottom up
        decide.
        """
        return self.basis[::-1]

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        moduli = self.ambient
        reduced = (tuple(map(mod, row, moduli)) for row in self.basis)
        return tuple(row for row in reduced if any(row))

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        moduli = self.ambient

        def add(u, v):
            return tuple((a + b) % m for a, b, m in zip(u, v, moduli))

        steps = [partial(add, g) for g in self.generators]  # g + x = x + g
        elements = tuple(sorted(_closure([(0,) * len(moduli)], steps)))
        if len(elements) != self.order:
            raise HomomorphismFailure(
                f"the generators of a subgroup of order {self.order} close "
                f"to {len(elements)} elements"
            )
        return elements

    @cached_property
    def invariants(self) -> tuple[int, ...]:
        # Read modulo |det C| itself, which kills Zᵏ/C·Zᵏ, so they are
        # exact; the check is then |det C|·|det B| = |G|.
        det = prod(row[i] for i, row in enumerate(self.coords))
        invariants = _cokernel_invariants(self.coords, _prime_powers(det))
        if prod(invariants) != self.order:
            raise HomomorphismFailure(
                f"subgroup of order {self.order} has invariant factors "
                f"{invariants}"
            )
        return invariants


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p^a) for each prime power p^a exactly dividing ``n``."""
    return [(p, p ** a) for p, a in _prime_factorization(n)]


def _primary_parts(matrix, p: int, q: int) -> list[int]:
    """The cyclic factors p^e > 1 of the p-part of Zᵏ/L, for L the row
    lattice of a nonsingular upper-triangular integer matrix, read modulo
    q = p^a: exact when q kills that p-part.

    Elimination over Z/q, a local ring (entries are reduced only as they
    change), with pivots of least valuation:
    a pivot p^v·u (u a unit) clears its column in every other row, and its
    row and column then split off a factor p^v.  A unit on the diagonal
    is such a pivot at once, and of the rows above it only those kept so
    far (with no unit on their diagonal) can hold its column.  Once no
    entry is left the rest split off p^a each.  The number of pivots of
    valuation below j is k minus the p-primary rank #{e >= j}.
    """
    kept, cols = [], []
    for i, row in enumerate(matrix):
        if row[i] % p:
            inverse = pow(row[i], -1, q)
            for r in kept:
                f = r[i] * inverse % q
                if f:
                    for j in range(i + 1, len(row)):
                        r[j] = (r[j] - f * row[j]) % q
        else:
            kept.append(list(row))
            cols.append(i)
    parts = []
    while kept:
        least, pivot = q, None
        for r in kept:
            for j in cols:
                g = gcd(r[j], q)
                if g < least:
                    least, pivot = g, (r, j)
        if pivot is None:
            return parts + [q] * len(kept)
        r, j = pivot
        kept.remove(r)
        cols.remove(j)
        if least > 1:
            parts.append(least)
        inverse = pow(r[j] // least, -1, q)
        for s in kept:
            f = s[j] // least * inverse % q
            if f:
                for c in cols:
                    s[c] = (s[c] - f * r[c]) % q
    return parts


def _cokernel_invariants(matrix, prime_powers) -> tuple[int, ...]:
    """Invariant factors > 1 of Zᵏ/L, for L the row lattice of a
    nonsingular upper-triangular integer matrix, from its p-primary parts
    read modulo each (p, q) of ``prime_powers`` (see :func:`_primary_parts`)."""
    return _invariant_chain(_primary_parts(matrix, p, q)
                            for p, q in prime_powers)


def _hermite_bases(moduli):
    """Hermite bases of the lattices L with diag(moduli)·Zᵏ ⊆ L ⊆ Zᵏ.

    Yields ``(B, C)``: ``B`` is the unique upper-triangular basis of L
    (rows are basis vectors, diagonal entries d_i dividing n_i, entries
    above a diagonal entry d_j reduced into ``range(d_j)``) and ``C`` the
    integer matrix with ``diag(moduli) = C·B``.  Rows are chosen from the
    bottom up; row i is kept only if back-substitution writes n_i·e_i in
    the rows chosen so far, which is exactly when the rows from i down
    span a lattice containing every n_j·e_j with j >= i.
    """
    k = len(moduli)

    def extend(i, rows, coords):
        if i < 0:
            yield rows, coords
            return
        n = moduli[i]
        pivots = [row[i + 1 + j] for j, row in enumerate(rows)]
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in divisors:
            m = n // d
            for tail in itertools.product(*map(range, pivots)):
                # Clear m·tail coordinate by coordinate with the rows below.
                x = [m]
                rest = [m * t for t in tail]
                for j, below in enumerate(rows):
                    q, r = divmod(rest[j], pivots[j])
                    if r:
                        break
                    x.append(-q)
                    if q:
                        for l in range(j + 1, len(rest)):
                            rest[l] -= q * below[i + 1 + l]
                else:
                    zeros = (0,) * i
                    yield from extend(i - 1, (zeros + (d,) + tail,) + rows,
                                      (zeros + tuple(x),) + coords)

    return extend(k - 1, (), ())


def subgroups_of_abelian(invariants: AbelianInvariants) -> tuple[AbelianSubgroup, ...]:
    """Every subgroup of a finite abelian group, with quotient invariants.

    The ambient group G = Zᵏ/diag(n) is realized as exponent vectors
    modulo the invariant factors n.  Its subgroups H correspond one to one
    to the lattices L between diag(n)·Zᵏ and Zᵏ, enumerated through their
    Hermite bases B with diag(n) = C·B (see :func:`_hermite_bases`), and
    each is read off its basis at lattice cost: |G/H| = |Zᵏ/L| = ∏ diag(B),
    so |H| = |G| / ∏ diag(B), and the quotient's invariants are those of
    Zᵏ/L, whose p-primary parts are read modulo the p-part of G's exponent
    (:func:`_cokernel_invariants`); no Smith form is taken and no element
    listed.  Every call checks |H|·|G/H| = |G| with |G/H| the product of
    those invariants, which fails if the exponent does not kill Zᵏ/L.
    Deterministic order: by subgroup order, then element list, read off
    the bases (:attr:`AbelianSubgroup.key`).
    """
    if not invariants.is_finite:
        raise InfiniteGroup("subgroup enumeration needs a finite group")
    moduli = invariants.torsion
    total = invariants.order
    prime_powers = _prime_powers(moduli[-1] if moduli else 1)
    quotients: dict[tuple[int, ...], AbelianInvariants] = {}
    out = []
    for basis, coords in _hermite_bases(moduli):
        torsion = _cokernel_invariants(basis, prime_powers)
        quotient = quotients.get(torsion)
        if quotient is None:
            quotient = quotients[torsion] = AbelianInvariants(0, torsion)
        order = total // prod(row[i] for i, row in enumerate(basis))
        if order * quotient.order != total:
            raise HomomorphismFailure(
                f"subgroup of order {order} with quotient of order "
                f"{quotient.order} in a group of order {total}"
            )
        out.append(AbelianSubgroup(moduli, basis, coords, order, quotient))
    out.sort(key=lambda s: (s.order, s.key))
    return tuple(out)
