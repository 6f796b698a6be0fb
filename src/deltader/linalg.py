"""Exact linear algebra: sparse reduced echelon forms and fraction-free elimination.

The solver's systems are large but very sparse (a handful of nonzeros per
row): rows are dicts {column: coefficient}.  Every batch echelon form comes
from one pipeline, ``sparse_rref``, the same over every field:

- pin: most rows of these systems have a single entry, which forces one
  unknown to zero; those unknowns, and the ones that rows left with one
  entry force in turn, are pinned before any elimination (``_pin``),
  which holds no row whose unknowns are all pinned when it arrives, and
  is the one place where a yielded row is pinned.  A pointwise solver's
  assembler puts in a pin set only the columns of one-entry rows that it
  never builds (see ``solver._law_rows``), and the cascade starts from
  the set;
- split: the other rows fall apart into many small blocks, the connected
  components of the row/column incidence graph (``_blocks``);
- order: over a field, each block's rows by descending least column, then
  fewer entries first (``_fill_key``), so that a new pivot column seldom
  meets a stored row and a new pivot row is short: little fill;
- eliminate each block on its own (``_rref``).

No block shares a column with another or with a pinned unknown, so the
pinned pivots and the block RREFs together are the RREF of the whole
system, the one a single elimination would give (see ``sparse_rref``).  It
is canonical, independent of insertion order, so the row order changes
only the work, and the nullspace basis that ``sparse_nullspace`` reads off
it is reproducible byte-for-byte.  Over a quotient ring the rows keep their
input order: there the order decides whether a zero-divisor pivot is met.

``_rref`` is the only batch elimination.  Over Q it eliminates integer
rows by fraction-free Gauss-Jordan elimination (``_int_rref``, which the
parametric solver also runs on its integer rows): every division is
exact, and the entries stay minors of the block, so the pivot rows avoid
the gcd work and coefficient growth of fraction arithmetic.  The solvers'
rows are ints already, integer multiples of the laws' rows (see
``solver._law_rows``); rows of Fractions from any other caller are scaled
to integers first, each by the lcm of its denominators.
One division by the last pivot minor gives the RREF over Q: that
division is where ``Fraction`` enters.  A dense Q block, of m >= 16
columns with on average at least 10 entries a row, whose minors grow to
hundreds of bits while its RREF keeps entries of a few, is first
eliminated modulo word-size primes on the packed kernel below, its
residues read back by rational reconstruction (``_modular_rref``); a
candidate is returned only after an exact certificate, and a block with
none goes to ``_int_rref``.  Over GF(p)
and over quotient rings the dict kernel (``_dict_rref``) runs the
elimination step, ``_sub_multiple``, one loop that ``superstd`` shares for
its incremental insertions: it scales each new pivot row and clears pivot
columns from incoming and stored rows.  The step takes the field: over
GF(p) it works on plain ints, each sum reduced mod p as it is made, and
over every other field it calls the field's own methods.  Q reaches the
step only in ``superstd``'s s4 insertions and in the coordinates that
``SpanSolver`` reads.  Over GF(p) a block of m >= 16
columns with on average at least 4 entries a row goes instead to the
packed kernel (``_packed_rref``).  Such a block is tall, most of its rows
dependent, so the kernel tracks a basis of the kernel of the rows read so
far, entry c of every vector in one int, a 32-bit slot per vector reduced
mod p only where it is read: a dependent row costs one big-int
multiply-add per entry.  No slot exceeds p + m (m + 1) p^3, so the kernel
runs only where that bound is below 2^32; past it, and on the sparse
blocks of standard bases, where a packed int costs more than the few dict
entries it replaces, the dict kernel runs.
``SpanSolver`` runs no elimination: it reads coordinates off the identity
columns of a basis that is already reduced.

A pencil A + delta B is pinned and split the same way, with a nonzero
constant as the unit (see ``solver.solve_parametric``).  The rank of a
block can drop only at the roots of a maximal nonvanishing minor: the
determinant of a square S(delta) of the block nonsingular at a point c,
or the last pivot of one-step fraction-free (Bareiss) elimination over
GF(p)[delta] (``fraction_free_pivots``); ``solver._block_spectrum`` sets
out which block takes which.  ``_pencil_det`` takes the determinant as
det S(c) det(I + (delta - c) S(c)^-1 S_1), S_1 the delta part, whose second
factor is read off the characteristic polynomial of S(c)^-1 S_1 in upper
Hessenberg form: one O(r^3) pass mod p over GF(p), and over Q passes mod
62-bit primes combined by the Chinese remainder theorem up to a Hadamard
bound.  ``charpoly`` runs the same Hessenberg pass on M itself: once over
GF(p), for any n, and over Q on the same primes, M's rows scaled to
integers.  Every word-size prime comes from one cached search
(``_word_primes``).  Roots in the base field come from
``base_field_roots``: over Q by lifting the roots mod a small prime p to
roots mod a power of p and reconstructing fractions from them, each checked
exactly; over GF(p) by evaluation at every point for small p and by
splitting gcd(f, x^p - x) for large p.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import compress, count, islice
from operator import mul

from .fields import (
    Field,
    PrimeField,
    Rationals,
    _is_prime,
    poly_deg,
    poly_divmod,
    poly_ext_gcd,
    poly_mod,
    poly_mul,
    poly_sub,
    poly_trim,
)


# ---------------------------------------------------------------------------
# sparse RREF and nullspaces


def _sub_multiple(dst: dict, coef, src: dict, skip, F: Field) -> None:
    """dst -= coef * src, over the columns of src other than ``skip``: the one
    loop of the elimination step.  Over GF(p) the entries are plain ints,
    each sum reduced mod p as it is made; over Q and over a quotient ring
    it calls the field's own ``sub``, ``mul`` and ``is_zero``."""
    get, p = dst.get, F.p
    if p:
        for j, v in src.items():
            if j != skip:
                x = (get(j, 0) - coef * v) % p
                if x:
                    dst[j] = x
                else:
                    dst.pop(j, None)
        return
    zero, sub, mul, is_zero = F.zero(), F.sub, F.mul, F.is_zero
    for j, v in src.items():
        if j != skip:
            x = sub(get(j, zero), mul(coef, v))
            if is_zero(x):
                dst.pop(j, None)
            else:
                dst[j] = x


def _eliminate(row: dict, pivots: dict[int, dict], F: Field) -> None:
    """Reduce a sparse row in place by the stored pivot rows.

    Stored rows contain no other pivot column, so one pass over the pivot
    columns present in the row suffices."""
    for c in [c for c in row if c in pivots]:
        _sub_multiple(row, row.pop(c), pivots[c], c, F)


def _add_pivot(row: dict, pivots: dict[int, dict], F: Field) -> None:
    """Store a reduced nonzero row, scaled to 1 at its least column, and
    clear that column from the rows stored before it."""
    p = min(row)
    scaled: dict = {}
    _sub_multiple(scaled, F.inv(F.neg(row[p])), row, None, F)  # 0 - (-row / row[p])
    for prow in pivots.values():
        if p in prow:
            _sub_multiple(prow, prow.pop(p), scaled, p, F)
    pivots[p] = scaled


def _rref(rows, F: Field) -> tuple[dict[int, dict], list[int]]:
    """The RREF of the rows, in the form of ``sparse_rref`` but from one
    elimination with no pinning and no split, and the indices of the input
    rows that became pivots, in order: each is independent of the rows
    before it.  Over GF(p) the entries may be any ints; they are reduced
    mod p.  A new row, reduced by the pivot rows so far, becomes a pivot at
    its least column if it is not zero.  Over Q the rows go through
    ``_int_rref`` in ints, as the solvers make them; unless every entry is
    an int, each row is first scaled to integers by the lcm of its
    denominators.  One division by the last pivot minor gives the RREF.
    A block of m >= 16 columns with on average at least 10 entries a row
    goes first to ``_modular_rref``, which gives the same RREF, with the
    same ``Fraction`` values, and as chosen rows those of its first
    prime: a basis of the row space, not always the rows ``_int_rref``
    would choose (``sparse_rref``, the one Q caller, reads only the RREF).
    The gate is fitted on per-block times (ROADMAP): the rebased centroids
    of sl3 and Witt Z/7 (11-12 entries a row) pass it, 0.8-0.9x their
    ``_int_rref`` time, and the blocks of standard bases (2.5-4) do not,
    which would take 1.6-3x.

    Over GF(p) a block with m >= 16 columns and on average at least 4
    entries a row goes to ``_packed_rref``, which tracks a kernel basis
    packed into ints, where its slots' bound p + m (m + 1) p^3 is below
    2^32 (see ``_packs``); any other block, and every block over a
    quotient ring, goes to ``_dict_rref``.  Both return the same pair.
    The gate is fitted on per-block times (ROADMAP): the rebased blocks
    (6-27 entries a row) take 0.2-1.05x their dict time, and the blocks of
    standard bases (2-3 a row) would take 1.4-3.2x.
    """
    if isinstance(F, Rationals):
        rows = list(rows)
        if not {type(v) for row in rows for v in row.values()} <= {int}:
            ints = []
            for row in rows:
                den = math.lcm(*(v.denominator for v in row.values()))
                ints.append({c: v.numerator * (den // v.denominator) for c, v in row.items() if v})
            rows = ints
        if sum(map(len, rows)) >= 10 * len(rows):
            cols = set().union(*rows)
            if len(cols) >= 16:
                found = _modular_rref(rows, sorted(cols))
                if found is not None:
                    return found
        pivots, d, chosen = _int_rref(rows)
        return {p: {c: Fraction(x, d) for c, x in prow.items()} for p, prow in pivots.items()}, chosen
    if isinstance(F, PrimeField):
        rows = list(rows)
        cols = set().union(*rows)
        m = len(cols)
        if m >= 16 and sum(map(len, rows)) >= 4 * len(rows) and _packs(F.p, m):
            return _packed_rref(rows, sorted(cols), F.p)
    return _dict_rref(rows, F)


def _dict_rref(rows, F: Field) -> tuple[dict[int, dict], list[int]]:
    """``_rref`` over GF(p) or a quotient ring on sparse dict rows: each
    incoming row, its zeros dropped, is reduced by the elimination step and
    becomes a pivot row if it is not zero."""
    pivots: dict[int, dict] = {}
    chosen = []
    p = F.p
    for k, row in enumerate(rows):
        if p:
            row = {c: y for c, v in row.items() if (y := v % p)}
        else:
            row = {c: v for c, v in row.items() if not F.is_zero(v)}
        _eliminate(row, pivots, F)
        if row:
            _add_pivot(row, pivots, F)
            chosen.append(k)
    return pivots, chosen


# the typecodes of the packed kernel's slots: 32-bit unsigned over GF(p),
# 64-bit unsigned for the primes of the modular route over Q
_SLOT = "I"
_WIDE = "Q"


def _packs(p: int, m: int, typecode: str = _SLOT) -> bool:
    """Whether the slots of ``_packed_rref``, of the array typecode
    ``typecode``, hold p + m (m + 1) p^3, the bound on every slot, for a
    block of m columns over GF(p)."""
    return p + m * (m + 1) * p**3 < 1 << 8 * array(typecode).itemsize


def _packed_rref(rows: list[dict], cols: list[int], p: int, typecode: str = _SLOT) -> tuple[dict[int, dict], list[int]]:
    """``_dict_rref`` over GF(p) for a tall block, by tracking a basis of
    the kernel of the rows read so far, packed by column (after Dumas,
    Fousse and Salvy, "Simultaneous modular reduction and Kronecker
    substitution for small finite fields", 2011): K_c holds entry c of each
    live kernel vector in a slot of the array typecode ``typecode`` (32
    bits over GF(p), 64 for the modular route over Q), reduced mod p only
    where it is read.

    The live vectors start as the identity on ``cols``; each stays 1 at its
    own column and 0 at the other live ones and right of its own, so they
    are the canonical nullspace basis of the rows so far, and the live
    columns its free ones.  A row r (mod p) is dependent when sum_c r_c K_c,
    one multiply-add per entry, is 0 mod p at every slot.  Else the live
    vector j of least column with slot d_j != 0 retires, its column the
    pivot: each K_c where it is not 0 (the pivots' and its own) takes the
    packed ratios -d_s / d_j times its entry, and slot j is zeroed.  So a
    slot grows by less than p^2 a pivot and stays below p + m p^2, and a
    row's sums below p + m (m + 1) p^3, which ``_packs`` makes fit.  Once
    half the slots are dead the ints are repacked to the live ones,
    reduced below p.  The RREF row of pivot q is 1 at q and -v_f[q] at each
    live column f; the chosen rows, those that retired a vector, are
    ``_dict_rref``'s.
    """
    size = array(typecode).itemsize
    width, order = 8 * size, sys.byteorder
    mask = (1 << width) - 1
    def pack(vals):
        return int.from_bytes(array(typecode, vals).tobytes(), order)

    def unpack(col):
        return memoryview(col.to_bytes(size * len(live), order)).cast(typecode)

    # int.from_bytes reads the slots in machine order: slot 0 on top if big-endian
    live = list(cols)  # each slot's column, None once its vector retires
    kernel = {c: 1 << width * (i if order == "little" else len(cols) - 1 - i) for i, c in enumerate(cols)}
    pivots, chosen = [], []
    for k, row in enumerate(rows):
        if len(pivots) == len(cols):
            break
        acc = 0
        for c, v in row.items():
            acc += v % p * kernel[c]
        slots = unpack(acc)
        if not any(map(p.__rmod__, slots)):
            continue
        j = next(i for i, x in enumerate(slots) if x % p)
        inv = pow(slots[j], -1, p)
        d = [x * inv % p for x in slots]
        d[j] = 0
        ratios, q = pack(d), live[j]
        at = width * (j if order == "little" else len(live) - 1 - j)
        for c in pivots + [q]:
            col = kernel[c]
            x = col >> at & mask
            if x:
                kernel[c] = col - (x << at) + -x % p * ratios
        pivots.append(q)
        chosen.append(k)
        live[j] = None
        if 2 * (len(cols) - len(pivots)) <= len(live):
            keep = [c is not None for c in live]
            for c, col in kernel.items():
                kernel[c] = pack([x % p for x in compress(unpack(col), keep)])
            live = list(compress(live, keep))
    rref = {q: {q: 1, **{c: -x % p for c, x in zip(live, unpack(kernel[q])) if x % p}} for q in pivots}
    return rref, chosen


def _wide_primes(m: int):
    """The primes whose 64-bit slots hold a block of m columns in
    ``_packed_rref``, from the largest down: those of ``_word_primes``
    below the cube root of 2^64 / (m (m + 1)) that ``_packs`` admits."""
    top = int((2**64 / (m * (m + 1))) ** (1 / 3)) + 1
    return (p for p in _word_primes(top) if _packs(p, m, _WIDE))


def _modular_rref(rows: list[dict], cols: list[int]) -> tuple[dict[int, dict], list[int]] | None:
    """``_rref`` over Q of a dense block of integer rows on the columns
    ``cols``, by elimination modulo word-size primes on the packed kernel,
    or None where no candidate is certified before the modulus passes 2 H^2.

    The first prime (the largest of ``_wide_primes``) eliminates every row
    and chooses a basis of their row space mod p; every later prime
    eliminates only the rows it chose.  A prime whose pivot set is shorter
    than the best seen, or as long but later (lexicographically larger),
    is unlucky, since mod p the pivot set is never longer or earlier than
    over Q: it is skipped, and a better one discards the residues kept so
    far.  The residues of each RREF entry under equal pivot sets are
    combined by the Chinese remainder theorem, and after each prime the
    entries are read back as fractions (``_lift``).  A candidate is
    returned only if every input row lies in its row space
    (``_certified``): then the row space of the rows is inside that of the
    candidate, whose rank, the number of pivots mod p, is at most the rank
    over Q, so the two are equal, and the candidate, being in reduced
    echelon form, is the canonical RREF over Q.  Every entry of that RREF
    is a ratio of two minors of the chosen rows, each at most their
    Hadamard bound H, so once the modulus passes 2 H^2 and no candidate
    is certified, the chosen rows miss part of the row space over Q (the
    first prime was unlucky) and None sends the block to ``_int_rref``.
    The RREF is returned with the first prime's chosen rows, a basis of
    the row space, not the rows ``_int_rref`` would choose.
    """
    def eliminate(rows, p):
        # the RREF mod p without the pivots' own entries, and the rows chosen
        residues, chosen = _packed_rref(rows, cols, p, _WIDE)
        for q, row in residues.items():
            del row[q]
        return residues, chosen

    primes = _wide_primes(len(cols))
    p = next(primes)
    residues, chosen = eliminate(rows, p)
    base = [rows[k] for k in chosen]
    limit = 2 * math.prod(sum(v * v for v in row.values()) for row in base)
    best, modulus = sorted(residues), p
    while True:
        found = _lift(residues, modulus)
        if found is not None and _certified(rows, cols, *found):
            return {q: {c: Fraction(a, b) for c, (a, b) in row.items()} for q, row in found[0].items()}, chosen
        if modulus > limit:
            return None
        p = next(primes, None)
        if p is None:
            return None
        more = eliminate(base, p)[0]
        key = sorted(more)
        if key == best:
            inv = pow(modulus, -1, p)
            for q, row in residues.items():
                new = more[q]
                for c in row.keys() | new.keys():
                    x = row.get(c, 0)
                    row[c] = x + modulus * ((new.get(c, 0) - x) * inv % p)
            modulus *= p
        elif len(key) > len(best) or len(key) == len(best) and key < best:
            residues, best, modulus = more, key, p


def _lift(residues: dict[int, dict], modulus: int) -> tuple[dict[int, dict], int] | None:
    """The RREF whose entries are congruent to ``residues`` mod the
    modulus, as {pivot: {column: (a, b)}} for the entry a / b, and a common
    denominator of its entries; None if an entry has no fraction a / b with
    |a| and b at most N, N^2 < modulus / 2, where at most one fraction is
    congruent to it (Wang's rational reconstruction; von zur Gathen and
    Gerhard, *Modern Computer Algebra*, section 5.10).  An entry u whose
    value times the common denominator d of the entries read so far is
    within N of a multiple of the modulus is read off that product, with
    no Euclid: the entries of an RREF share a denominator."""
    bound = math.isqrt(modulus // 2)
    den, out = 1, {}
    for q, row in residues.items():
        lifted = out[q] = {q: (1, 1)}
        for c, u in row.items():
            v = u * den % modulus
            if den <= bound and (v <= bound or modulus - v <= bound):
                lifted[c] = (v if v <= bound else v - modulus, den)
                continue
            found = _ratrec(u, modulus, bound, bound)
            if found is None:
                return None
            lifted[c] = found
            den = math.lcm(den, found[1])
    return out, den


def _certified(rows: list[dict], cols: list[int], candidate: dict[int, dict], den: int) -> bool:
    """Whether every row lies in the row space of the candidate RREF, whose
    entries (a, b), a / b, have the common denominator ``den``: whether
    each row r is orthogonal to each vector v_f of the candidate's
    nullspace, 1 at the free column f and -x at each pivot whose row has x
    at f.  With den v_f integral, column c's entries den v_f[c] are packed
    into one int K_c, a slot of w bits per free column, and the check is
    sum_c r[c] K_c = 0 in integers: every slot's sum is below 2^(w - 1) in
    absolute value, so the total is 0 exactly when every slot's is."""
    free = {c: i for i, c in enumerate(c for c in cols if c not in candidate)}
    if not free:
        return True
    top = max([den] + [abs(a) * (den // b) for row in candidate.values() for a, b in row.values()])
    width = (max(sum(map(abs, row.values())) for row in rows) * top).bit_length() + 2
    packed = dict.fromkeys(cols, 0)
    for f, i in free.items():
        packed[f] = den << width * i
    for q, row in candidate.items():
        packed[q] = sum(-a * (den // b) << width * free[c] for c, (a, b) in row.items() if c != q)
    return not any(sum(a * packed[c] for c, a in row.items()) for row in rows)


def _ratrec(u: int, modulus: int, nbound: int, dbound: int) -> tuple[int, int] | None:
    """(r, s) with r = s u mod the modulus, |r| <= nbound and
    0 < s <= dbound, from the extended Euclidean algorithm on (modulus, u)
    stopped at the first remainder r_i <= nbound, each r_i = s_i u (Wang's
    rational reconstruction); None if that s_i exceeds dbound.  Past a
    modulus of 2 nbound dbound at most one fraction r / s within the
    bounds is congruent to u."""
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > nbound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if s1 <= dbound else None


def _int_rref(rows) -> tuple[dict[int, dict], int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows (after
    Bareiss, 1968): the pivot rows, D times the RREF, where D is the last
    pivot minor, then D, then the indices of the rows that became pivots,
    as ``_rref`` gives them.  Zero entries may be present.

    Every stored row is D times its row of the RREF so far, where D is the
    pivot minor of the rows stored: D at its pivot, 0 at the other pivots,
    and minors of the integer rows elsewhere.  A new row r reduces to
    r' = D r - sum_p r[p] P_p, D times its reduction by that RREF, so its
    entries are minors too.  If r' is nonzero its least column c becomes a
    pivot with minor D' = r'[c], and every stored row P becomes
    (D' P - P[c] r') / D, exactly by Sylvester's identity.  Where P[c] = 0
    that is D' P / D, taken entry by entry in one pass: each quotient is
    exact and, D' and P's entries being nonzero, not zero.
    """
    pivots: dict[int, dict] = {}
    chosen = []
    d = 1
    for k, row in enumerate(rows):
        new = {c: d * v for c, v in row.items()}
        for p, a in row.items():
            if p in pivots:
                for c, x in pivots[p].items():
                    new[c] = new.get(c, 0) - a * x
        new = {c: v for c, v in new.items() if v}
        if not new:
            continue
        q = min(new)
        e = new[q]
        for p, prow in pivots.items():
            a = prow.get(q, 0)
            if a:
                prow = {c: e * x for c, x in prow.items()}
                for c, x in new.items():
                    prow[c] = prow.get(c, 0) - a * x
                pivots[p] = {c: x // d for c, x in prow.items() if x}
            else:
                pivots[p] = {c: e * x // d for c, x in prow.items()}
        pivots[q] = new
        d = e
        chosen.append(k)
    return pivots, d, chosen


def sparse_rref(rows, field: Field, pinned: set | None = None) -> dict[int, dict]:
    """Reduced row echelon form of a sparse system.

    ``rows`` is an iterable of dicts {col: coeff} of field elements (zeros
    absent, or explicit).  Returns {pivot_col: row} where each stored row
    has coefficient 1 at its pivot column and contains no other pivot
    column.  ``pinned``, if given, is a set of columns known to be zero,
    as if each were a row {c: 1}: the pin set of a pointwise solve, which
    holds the columns of the rows its assembler never builds.  It is
    read once ``rows`` is, and emptied once its pivots are made, so that
    it holds nothing while the caller reads the RREF.

    First the unknowns that rows with one entry, a unit, force to zero are
    pinned, along with those the cascade of rows left with one such entry
    forces (see ``_pin``).  Each pinned column c is a pivot whose RREF row
    is e_c, and every other RREF row is zero at c, so the pinned columns
    together with the RREF of the other rows, pinned columns removed, are
    the RREF of the system.  Then each block of those rows (see
    ``_blocks``) is eliminated on its own by ``_rref``; the union of the
    block RREFs is their RREF, since no two blocks share a column.  So the
    RREF is the one that a single elimination of all rows gives.

    Over a field (GF(p) or Q) each block enters ``_rref`` in the order of
    ``_fill_key``: by descending least column, then fewer entries first,
    to limit fill (Markowitz, "The elimination form of the inverse and its
    application to linear programming", 1957, chooses the elimination
    order for the same end).  ``_rref`` clears each new pivot column from
    every stored row with an entry there, and that clearing is what fills
    the stored rows.  A stored row's entries all lie at or right of its
    pivot, so when rows arrive by descending least column a new pivot
    mostly lies left of every stored row, and there is nothing to clear;
    short rows first make sparse pivot rows.  The RREF over a field is
    canonical, so the order cannot change it.  Over a ``QuotientRing`` the
    block keeps the input order: whether elimination meets a zero-divisor
    pivot, and so raises ``NonInvertible``, depends on the order of its
    rows.
    """
    pinned, rows = _pin(rows, field.is_unit, pinned)
    one = field.one()
    pivots = {c: {c: one} for c in pinned}
    pinned.clear()
    reorder = isinstance(field, (PrimeField, Rationals))
    for block in _blocks(rows):
        if reorder:
            block.sort(key=_fill_key)
        pivots.update(_rref(block, field)[0])
    return pivots


def _fill_key(row: dict) -> tuple[int, int]:
    """The sort key of a block's rows over a field (see ``sparse_rref``):
    descending least column, then fewer entries; ties keep their order."""
    return -min(row), len(row)


def _blocks(rows) -> list[list[dict]]:
    """The rows left by ``_pin``, grouped by connected component of the
    incidence graph in which a row meets every column it has an entry in,
    each block in the order of its first row and keeping its rows' order."""
    parent = {c: c for row in rows for c in row}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        cols = iter(row)
        r = find(next(cols))
        for c in cols:
            if parent[c] != r:
                s = find(c)
                if s != r:
                    parent[s] = r
    blocks: dict = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return list(blocks.values())


def _pin(rows, is_unit, pinned: set | None = None) -> tuple[set, list[dict]]:
    """The columns that one-entry rows force to zero, and the other rows
    without those columns (singleton elimination; see ``sparse_rref``).

    A row whose only entry a is in column c says a x_c = 0, so x_c = 0 when
    ``is_unit(a)``, and pinning c may leave another row with one entry,
    which pins its column in turn.  Any other entry pins nothing; its row
    is kept for elimination to report a zero divisor (in a ``QuotientRing``
    with a reducible modulus), drop an explicit zero, or rank a pencil
    entry a + b delta (see ``solver.solve_parametric``).  ``rows`` is read
    once, as a stream (the solvers store no system whole): a one-entry
    unit row pins its column and is dropped, and so is a row whose
    columns are all pinned when it arrives, which says nothing more, so
    the only rows ever held are those that may still be kept here.
    ``pinned``, if given, is a set of columns already known to be zero,
    which is added to and returned: in a pointwise solve it holds the
    columns of the one-entry rows that the assembler never builds, and
    the cascade starts from it once the stream is read.  The pencil of
    ``solve_parametric`` passes none.  Rows with several entries
    are indexed by column, with a live count of their entries in unpinned
    columns, so the cascade costs O(nnz).  The rows returned are those
    that pin nothing and keep a live entry: unchanged if every entry is
    live, else without their pinned columns."""
    pinned = set() if pinned is None else pinned
    several = []
    for row in rows:
        if len(row) == 1:
            for c, v in row.items():
                if is_unit(v):
                    pinned.add(c)
                else:
                    several.append(row)
        elif row and not pinned.issuperset(row):
            several.append(row)
    if not pinned:
        return pinned, several
    by_col: dict[int, list[int]] = {}
    live, todo = [], []
    for i, row in enumerate(several):
        n = 0
        for c in row:
            if c not in pinned:
                by_col.setdefault(c, []).append(i)
                n += 1
        live.append(n)
        if n == 1:
            todo.append(i)
    while todo:
        i = todo.pop()
        if live[i] != 1:
            continue  # its last live column was pinned by another row
        c = next(c for c in several[i] if c not in pinned)
        if not is_unit(several[i][c]):
            continue
        pinned.add(c)
        for j in by_col[c]:
            live[j] -= 1
            if live[j] == 1:
                todo.append(j)
    del by_col  # free the index before the rows returned are built
    rest = []
    for row, n in zip(several, live):
        if n == len(row):
            rest.append(row)
        elif n:
            rest.append({c: v for c, v in row.items() if c not in pinned})
    return pinned, rest


def sparse_nullspace(rows, ncols: int, field: Field, pinned: set | None = None) -> list[dict]:
    """Canonical nullspace basis of a sparse homogeneous system, read off
    its ``sparse_rref`` as sparse vectors {column: value}.

    The basis has one vector v_c per free column c of the RREF: 1 at c, and
    -x at each pivot p whose RREF row has x at c.  It is zero on the other
    free columns, and holds no zero value.  Columns in no row and not in
    ``pinned`` are free.  ``pinned``, if given, is the pin set of a
    pointwise solve, columns known to be zero, among them those of the
    rows its assembler never builds; ``sparse_rref`` empties it.  So the
    basis is the same however the rows are ordered, and whether a
    one-entry unit row came as a row or as a column."""
    F = field
    pivots = sparse_rref(rows, F, pinned)
    one, neg = F.one(), F.neg
    basis = {c: {c: one} for c in range(ncols) if c not in pivots}
    # a pivot row's other columns are all free; a one-entry row has none
    for p, row in pivots.items():
        if len(row) > 1:
            for c, x in row.items():
                if c != p:
                    basis[c][p] = neg(x)
    return list(basis.values())


def _dense(v: dict, ncols: int, F: Field) -> list:
    """The sparse vector v as a dense list of length ncols."""
    out = [F.zero()] * ncols
    for j, c in v.items():
        out[j] = c
    return out


def _sparse(v, F: Field) -> dict:
    """A vector, a dense list or a sparse dict, as a fresh sparse dict with
    no zero value."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {j: c for j, c in items if not F.is_zero(c)}


def _row_value(row: dict, vec: dict, F: Field):
    """The value of the sparse row {col: coeff} at the sparse vector vec."""
    value = F.zero()
    for c, a in row.items():
        x = vec.get(c)
        if x is not None:
            value = F.add(value, F.mul(a, x))
    return value


def sparse_rank(rows, field: Field) -> int:
    return len(sparse_rref(rows, field))


def dense_to_sparse(matrix, field: Field) -> list[dict]:
    return [_sparse(row, field) for row in matrix]


def dense_nullspace(matrix: list[list], field: Field) -> list[list]:
    """Nullspace {v : matrix @ v = 0} for a dense matrix (rows are
    equations), as dense vectors."""
    if not matrix:
        return []
    n = len(matrix[0])
    return [_dense(v, n, field) for v in sparse_nullspace(dense_to_sparse(matrix, field), n, field)]


def kernel_of_map(rows: list, field: Field) -> list[list]:
    """Basis of {v : v @ rows = 0}, as dense vectors; ``rows[i]`` is the
    image of e_i, a dense list or a sparse dict.  The equations are the
    columns, in order."""
    columns: dict[int, dict] = {}
    for i, row in enumerate(rows):
        for j, x in _sparse(row, field).items():
            columns.setdefault(j, {})[i] = x
    n = len(rows)
    return [_dense(v, n, field) for v in sparse_nullspace([columns[j] for j in sorted(columns)], n, field)]


# ---------------------------------------------------------------------------
# coordinates in reduced bases


class SpanSolver:
    """Coordinates in a reduced basis: one in which every vector has a
    column where it is 1 and every other vector is 0.  These are the pivot
    columns of an RREF (``rref_dense``) and the free columns of a
    ``sparse_nullspace`` basis.  The coordinates of v are its entries at
    those columns, and v lies in the span exactly when v minus the
    combination they give is zero: one pass over the basis vectors with a
    nonzero coordinate, with no elimination.  Vectors, of the basis or
    queried, are dense lists or sparse dicts {index: value}; each is held
    and reduced as a sparse dict, so the work follows the nonzero entries.
    """

    def __init__(self, field: Field, vectors: list | None = None):
        self.field = field
        self._rows: list[dict] = []
        self._columns: list[int] = []
        rows = [_sparse(v, field) for v in vectors or []]
        hits = Counter(j for row in rows for j in row)
        one = field.one()
        for i, row in enumerate(rows):
            column = next((j for j, c in row.items() if hits[j] == 1 and field.eq(c, one)), None)
            if column is None:
                raise ValueError(f"vector {i} has no column where it is 1 and the others are 0")
            self.add(row, column)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, row: dict, column: int) -> bool:
        """Append a basis vector, as a sparse row, with its identity column."""
        self._rows.append(row)
        self._columns.append(column)
        return True

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coefficients of v over the basis, as a dense list, or None if v
        is not in its span."""
        F = self.field
        rest = _sparse(v, F)
        zero = F.zero()
        coords = [rest.get(c, zero) for c in self._columns]
        for a, row in zip(coords, self._rows):
            if not F.is_zero(a):
                _sub_multiple(rest, a, row, None, F)
        return None if rest else coords


def _dense_pivot_rows(pivots: dict[int, dict], ncols: int, F: Field) -> list[list]:
    """The pivot rows in pivot order as dense vectors of length ncols."""
    return [_dense(pivots[p], ncols, F) for p in sorted(pivots)]


def rref_dense(vectors: list[list], field: Field) -> list[list]:
    """Canonical (RREF) basis of the span of the given dense vectors."""
    if not vectors:
        return []
    pivots = sparse_rref(dense_to_sparse(vectors, field), field)
    return _dense_pivot_rows(pivots, len(vectors[0]), field)


def same_span(a: list, b: list, field: Field) -> bool:
    """Whether two lists of vectors, dense lists or sparse dicts, span the
    same space: whether their RREFs, sparse and canonical, are equal."""
    return sparse_rref([_sparse(v, field) for v in a], field) == sparse_rref(
        [_sparse(v, field) for v in b], field
    )


# ---------------------------------------------------------------------------
# fraction-free elimination over polynomial entries


def _poly_exact_div(base: Field, f: list, g: list) -> list:
    q, r = poly_divmod(base, f, g)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


def fraction_free_pivots(
    base: Field, rows: list[list[list]], ncols: int
) -> tuple[int, list[list]]:
    """Bareiss elimination on a matrix of polynomials over ``base``.

    ``rows[i][j]`` is a coefficient list (may be empty = zero).  Returns
    (rank, pivots) where the k-th pivot is, up to sign, the k x k minor on
    the first k chosen rows and pivot columns; the rank r is the generic
    rank, and the last pivot is an r x r minor, so any specialization where
    the rank drops is a root of it.
    """
    m = [list(r) for r in rows if any(r)]
    nrows = len(m)
    prev = [base.one()]
    pivots: list[list] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if m[i][c]:
                if best is None or poly_deg(m[i][c]) < poly_deg(m[best][c]):
                    best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c + 1, ncols):
                num = poly_sub(
                    base, poly_mul(base, piv, m[i][j]), poly_mul(base, mic, m[r][j])
                )
                m[i][j] = _poly_exact_div(base, num, prev) if num else []
            m[i][c] = []
        prev = piv
        pivots.append(piv)
        r += 1
    return r, pivots


def charpoly(field: Field, matrix: list[list]) -> list:
    """Characteristic polynomial det(xI - M) over Q or GF(p), monic, as a
    coefficient list low-degree-first.

    Over GF(p) it is one pass of ``_charpoly_mod`` on M, for any n, n >= p
    included.  Over Q each row M_i is scaled to the integer row D_i M_i, D_i
    the lcm of its denominators, and the integer polynomial
    det(D (xI - M)) = (prod D_i) det(xI - M), whose rows are
    x D_i e_i - D_i M_i, is read off its residues mod word-size primes q
    (``_crt``): mod q it is prod D_i times ``_charpoly_mod`` of M, and a q
    that divides some D_i is skipped.  One division by prod D_i makes it
    monic.
    """
    if isinstance(field, PrimeField):
        return _charpoly_mod([[c % field.p for c in row] for row in matrix], field.p)
    rows, scales = [], []
    for row in matrix:
        d = math.lcm(*(c.denominator for c in row))
        rows.append([c.numerator * (d // c.denominator) for c in row])
        scales.append(d)
    lead = math.prod(scales)

    def residues(q):
        if lead % q == 0:
            return None
        m = []
        for d, a in zip(scales, rows):
            inv = pow(d, -1, q)
            m.append([x * inv % q for x in a])
        return [lead * c % q for c in _charpoly_mod(m, q)]

    # the norm of row i's x part, D_i e_i, is that of [D_i]
    bound = _norm_bound([(a, [d]) for a, d in zip(rows, scales)])
    return [Fraction(c, lead) for c in _crt(residues, bound)]


# ---------------------------------------------------------------------------
# pencil determinants modulo word-size primes

_WORD_PRIMES: dict[int, list[int]] = {}


def _word_primes(top: int = 1 << 62):
    """The odd primes below ``top``, from the largest down: the one search
    for word-size primes.  Each is found once per process and kept, per
    ``top``: a search would cost more than most passes."""
    found = _WORD_PRIMES.setdefault(top, [])
    for i in count():
        if i == len(found):
            q = (found[-1] if found else top | 1) - 2
            while q > 2 and not _is_prime(q):
                q -= 2
            if q < 3:
                return
            found.append(q)
        yield found[i]


def _norm_bound(rows) -> int:
    """prod_i (|a_i| + |b_i|), Euclidean norms rounded up, over the rows
    (a_i, b_i).  The coefficient of t^j in det(A + tB) is the sum over the
    j-sets S of rows of the determinants with b_i in the rows of S and a_i
    elsewhere, each at most prod_S |b_i| prod_(not S) |a_i| (Hadamard), and
    the sum of those bounds over every S is this product: it bounds every
    coefficient."""

    def norm(v):
        s = sum(x * x for x in v)
        return math.isqrt(s - 1) + 1 if s else 0

    return math.prod(norm(a) + norm(b) for a, b in rows)


def _crt(residues, bound: int) -> list[int]:
    """The integer polynomial, coefficients low-degree-first ([] if zero),
    each at most ``bound`` in absolute value, whose reduction mod each
    prime q of ``_word_primes`` is ``residues(q)``, or None where q is to be
    skipped.  The residues are combined by the Chinese remainder theorem
    until the modulus exceeds 2 ``bound``, and read in the symmetric range
    (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5)."""
    f, modulus = [], 1
    for q in _word_primes():
        g = residues(q)
        if g is None:
            continue
        n = max(len(f), len(g))
        f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
        inv = pow(modulus, -1, q)
        f = [x + modulus * ((y - x) * inv % q) for x, y in zip(f, g)]
        modulus *= q
        if modulus > 2 * bound:
            break
    half = modulus // 2
    f = [x - modulus if x > half else x for x in f]
    while f and not f[-1]:
        f.pop()
    return f


def _inverse_times(m: list[list[int]], r: int, q: int) -> int:
    """Gauss-Jordan elimination mod q of an r x w matrix (consumed) whose
    first r columns are a square S: on return they are the identity, and
    the other columns are S^-1 times what they were.  Returns det S mod q;
    where it is 0, S is singular mod q and the matrix is left half done."""
    det = 1
    for j in range(r):
        i = next((i for i in range(j, r) if m[i][j]), None)
        if i is None:
            return 0
        if i != j:
            m[i], m[j] = m[j], m[i]
            det = -det
        det = det * m[j][j] % q
        inv = pow(m[j][j], -1, q)
        top = m[j][j:] = [x * inv % q for x in m[j][j:]]
        for i in range(r):
            row = m[i]
            u = row[j]
            if u and i != j:
                row[j:] = [(x - u * y) % q for x, y in zip(row[j:], top)]
    return det % q


def _charpoly_mod(m: list[list[int]], q: int) -> list[int]:
    """det(xI - M) mod q, monic, low-degree-first, for a square matrix of
    residues mod q (consumed), q prime.  M is taken to upper Hessenberg
    form H by similarities: for each column j, the row with a nonzero
    entry below the subdiagonal is swapped to j + 1 (rows and columns), and
    the rows below it cleared by multiples of it, each row operation paired
    with the inverse column operation.  Then the characteristic
    polynomials p_k of H's leading k x k blocks follow from
    p_(k+1) = (x - h_kk) p_k - sum_i h_(k-i),k h_k,(k-1) ... h_(k-i+1),(k-i) p_(k-i),
    which stops where a subdiagonal entry is 0 (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.2.9).  No division by
    anything but pivots, so any n, n >= q included, takes one pass."""
    n = len(m)
    for j in range(n - 2):
        k = j + 1
        i = next((i for i in range(k, n) if m[i][j]), None)
        if i is None:
            continue
        if i != k:
            m[i], m[k] = m[k], m[i]
            for row in m:
                row[i], row[k] = row[k], row[i]
        # left of column j, rows k and below are 0
        top = m[k][j:]
        inv = pow(top[0], -1, q)
        us = [0] * (n - k - 1)
        for i in range(k + 1, n):
            row = m[i]
            if row[j]:
                u = us[i - k - 1] = row[j] * inv % q
                row[j:] = [(x - u * y) % q for x, y in zip(row[j:], top)]
        if any(us):
            for row in m:
                row[k] = (row[k] + sum(map(mul, us, row[k + 1 :]))) % q
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        h = m[k][k]
        p = [y - h * x for x, y in zip(prev + [0], [0] + prev)]
        t = 1
        for i in range(1, k + 1):
            t = t * m[k - i + 1][k - i] % q
            if not t:
                break
            c = t * m[k - i][k] % q
            if c:
                low = polys[k - i]
                p[: len(low)] = [x - c * y for x, y in zip(p, low)]
        polys.append([x % q for x in p])
    return polys[n]


def _pencil_det_mod(rows, point: int, q: int) -> list[int]:
    """det(A + tB) mod q, low-degree-first ([] if it vanishes mod q), for
    the rows (a_i, b_i) of a square, q prime.

    At the first point c of point, point + 1, ... where S(c) = A + cB is
    nonsingular mod q, det S(t) = det S(c) det(I + (t - c) M) with
    M = S(c)^-1 B (``_inverse_times``), and det(I + s M) is
    sum_j (-1)^j chi_(r-j) s^j, where chi is the characteristic polynomial
    of M (``_charpoly_mod``).  The determinant has degree at most k, the
    number of rows with a t term, so if S is singular at k + 1 points it
    vanishes; where q <= k and S is singular at every point of GF(q) that
    cannot be told, and ``ArithmeticError`` is raised."""
    r = len(rows)
    k = sum(1 for _, b in rows if any(b))
    for c in range(point, point + min(k + 1, q)):
        c %= q
        m = [[(x + c * y) % q for x, y in zip(a, b)] + [y % q for y in b] for a, b in rows]
        det = _inverse_times(m, r, q)
        if not det:
            continue
        chi = _charpoly_mod([row[r:] for row in m], q)
        f = [(-det if j % 2 else det) * chi[r - j] % q for j in range(r + 1)]
        while f and not f[-1]:
            f.pop()
        if c:
            # Horner's scheme for f(t - c)
            g = [f[-1]]
            for x in reversed(f[:-1]):
                g = [(y - c * z) % q for z, y in zip(g + [0], [0] + g)]
                g[0] = (g[0] + x) % q
            f = g
        return f
    if k >= q:
        raise ArithmeticError(f"the square is singular at every point of GF({q})")
    return []


def _pencil_det(square: list[list[list[int]]], point: int = 0, p: int = 0) -> list[int]:
    """det(A + tB), as coefficients low-degree-first ([] if it vanishes),
    for a square of integer pencil entries [], [a] or [a, b], that is
    a + b t.  Each pass tries t = ``point`` first: the solver passes the
    point where it found the square nonsingular.

    Over GF(p) (p > 0) it is one pass of ``_pencil_det_mod`` on the
    residues, and the coefficients are residues.  Over Q (p = 0) it is the
    integer determinant, from passes modulo word-size primes combined up to
    the bound of ``_norm_bound`` (``_crt``).
    """
    rows = [([f[0] if f else 0 for f in row], [f[1] if len(f) > 1 else 0 for f in row]) for row in square]
    if p:
        return _pencil_det_mod(rows, point, p)
    return _crt(lambda q: _pencil_det_mod(rows, point, q), _norm_bound(rows))


# ---------------------------------------------------------------------------
# root finding in the base field

# odd primes tried for p-adic lifting before f is made squarefree
_LIFT_TRIES = 3
# GF(p) roots are found by evaluation at every point for p below this, and
# by splitting gcd(f, x^p - x) from it on: on the determinants of sl_n
# spectra the two cost the same between p = 151 and p = 211 (about 150 us a
# polynomial, CPython 3.11 on a 2-vCPU x86-64 VM)
_SWEEP_LIMIT = 200


def _primitive(f: list) -> list[int]:
    """f times a positive rational: coprime integer coefficients, same signs."""
    den = math.lcm(*(c.denominator for c in f))
    ints = [c.numerator * (den // c.denominator) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _derivative(f: list) -> list:
    return [k * c for k, c in enumerate(f)][1:]


def _prem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """(r, s): the pseudo-remainder r = lc(g)^s f - q g of integer
    polynomials, deg r < deg g, with s the number of steps taken.  So r is
    lc(g)^s times the remainder of f by g over Q."""
    r, lc, s = list(f), g[-1], 0
    while len(r) >= len(g):
        c, shift = r[-1], len(r) - len(g)
        r = [lc * x for x in r]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
        s += 1
        while r and not r[-1]:
            r.pop()
    return r, s


def _exact_quo(f: list[int], g: list[int]) -> list[int]:
    """f / g for integer polynomials where the quotient is integral."""
    r, q = list(f), [0] * (len(f) - len(g) + 1)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = r[shift + len(g) - 1] // g[-1]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
    return q


def _sign_at(f: list[int], y: int, q: int) -> int:
    """Sign of f(y/q) for q > 0, from the integer q^deg f(y/q)."""
    acc, qk = f[-1], 1
    for c in reversed(f[:-1]):
        qk *= q
        acc = acc * y + c * qk
    return (acc > 0) - (acc < 0)


def _squarefree(f: list[int]) -> list[int]:
    """f over gcd(f, f'), the gcd taken by the primitive pseudo-remainder
    sequence, and the quotient by an exact division: an integer polynomial
    with the same roots as f, each simple."""
    g, h = f, _primitive(_derivative(f))
    while h:
        r = _prem(g, h)[0]
        g, h = h, _primitive(r) if r else []
    return _exact_quo(f, g)


def _value_mod(f: list[int], a: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % m
    return acc


def _sweep_roots(f: list[int], p: int) -> list[int]:
    """The roots of f in GF(p), ascending, by evaluation at every point."""
    return [a for a in range(p) if not _value_mod(f, a, p)]


def _lifting_prime(f: list[int], tries: int | None = None) -> tuple[int, list[int]] | None:
    """(p, roots): the first odd prime p not dividing lc(f), among the
    first ``tries`` such primes or among all of them, at which every root of
    f mod p is simple, with those roots mod p, found by evaluation at every
    point of GF(p); None if none of those primes serves."""
    for p in islice((p for p in count(3, 2) if f[-1] % p and _is_prime(p)), tries):
        fp = [c % p for c in f]
        df = _derivative(fp)
        roots = _sweep_roots(fp, p)
        if all(_value_mod(df, a, p) for a in roots):
            return p, roots
    return None


def _rational_roots(f: list) -> list:
    """Distinct rational roots of f over Q, by p-adic lifting in integers.

    f is made primitive and its factor x^k split off (0 is then a root), so
    that f(0) != 0 and every rational root is r/s in lowest terms with r
    dividing f(0) and s dividing lc(f).  At an odd prime p that does not
    divide lc(f), r/s reduces to a root of f mod p, and where every root of
    f mod p is simple each lifts to one root mod p^(2^j) by Newton's
    iteration, which must be r/s mod that power once the root mod p is
    that of r/s.  Past m = p^(2^j) > 2 |f(0)| |lc f| at most one fraction
    with |r| <= |f(0)| and 0 < s <= |lc f| is congruent to a lifted root;
    the extended Euclidean algorithm on (m, root), stopped at the first
    remainder <= |f(0)| (Wang's rational reconstruction), finds it if it
    exists, and it is kept if f vanishes there exactly.  A repeated
    rational root is a multiple root mod every p, so when the first
    ``_LIFT_TRIES`` such primes all fail, f is replaced by its squarefree
    part, for which all but finitely many primes serve, and the primes are
    searched again without a bound (``_lifting_prime``).
    """
    f = _primitive(f)
    k = next(i for i, c in enumerate(f) if c)
    roots = [Fraction(0)] if k else []
    f = f[k:]
    if len(f) == 1:
        return roots
    found = _lifting_prime(f, _LIFT_TRIES)
    if found is None:
        f = _squarefree(f)
        found = _lifting_prime(f)
    p, mod_p = found
    bound, top = abs(f[0]), abs(f[-1])
    m = p
    while m <= 2 * bound * top:
        m *= m
    df = _derivative(f)
    for a in mod_p:
        q = p
        while q < m:
            q *= q
            a = (a - _value_mod(f, a, q) * pow(_value_mod(df, a, q), -1, q)) % q
        found = _ratrec(a, m, bound, top)
        if found is not None and not _sign_at(f, *found):
            roots.append(Fraction(*found))
    return sorted(roots)


def _poly_powmod(F: PrimeField, f: list, e: int, g: list) -> list:
    """f^e mod g over GF(p), for a linear f, by left-to-right binary
    powering: each step squares, and a multiplication by f is one pass."""
    out = [1]
    for bit in bin(e)[2:]:
        out = poly_mod(F, poly_mul(F, out, out), g)
        if bit == "1":
            out = poly_mod(F, poly_mul(F, out, f), g)
    return out


def _split_roots(F: PrimeField, f: list) -> list[int]:
    """Roots in GF(p), p odd, of f without a sweep of the field.

    They are the roots of g = gcd(f, x^p - x), the product of the distinct
    linear factors of f, with x^p reduced mod f by repeated squaring.  A
    factor g of degree above 1 is split by gcd(g, (x + a)^((p - 1)/2) - 1),
    which keeps the roots r with r + a a nonzero square, for a = 0, 1, 2,
    ... in turn (Cantor and Zassenhaus; von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 14), so that a run is reproducible.
    """
    x = [0, 1]
    todo = [poly_ext_gcd(F, f, poly_sub(F, _poly_powmod(F, x, F.p, f), x))[0]]
    roots, a = [], 0
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(F.neg(g[0]))
        elif len(g) > 2:
            d = poly_ext_gcd(F, g, poly_sub(F, _poly_powmod(F, [a, 1], F.p // 2, g), [1]))[0]
            a += 1
            todo += [d, poly_divmod(F, g, d)[0]] if 1 < len(d) < len(g) else [g]
    return sorted(roots)


def base_field_roots(base: Field, f: list) -> list:
    """All roots of the polynomial f (over ``base``) lying in ``base``, sorted.

    Over Q they are found by p-adic lifting (``_rational_roots``); over
    GF(p) by evaluation at every point below ``_SWEEP_LIMIT``, and above it
    by splitting gcd(f, x^p - x) (``_split_roots``).
    """
    f = poly_trim(base, list(f))
    if not f or poly_deg(f) == 0:
        return []
    if isinstance(base, PrimeField):
        if base.p < _SWEEP_LIMIT:
            return _sweep_roots(f, base.p)
        return _split_roots(base, f)
    if isinstance(base, Rationals):
        return _rational_roots(f)
    raise TypeError("root search is supported over Q and GF(p) only")
