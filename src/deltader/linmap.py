"""Sparse exact matrices in fixed bases.

A :class:`LinearMap` keeps only its nonzero entries: ``entries[i]`` is the
image of the basis vector e_i as {j: coefficient of e_j}, and a row that is
zero is absent.  Application to a coordinate (row) vector v is v @ M.
Every operation runs on the entries.  Only ``flat``, ``to_json`` and the
``rows`` view, built on demand and not stored, are dense.
"""

from __future__ import annotations

from .fields import Field
from .linalg import kernel_of_map


class LinearMap:
    __slots__ = ("field", "entries", "nrows", "ncols")

    def __init__(self, field: Field, rows: list[list]):
        """The map with the dense rows ``rows``: ``rows[i][j]`` is the
        coefficient of e_j in D(e_i).  Zero entries are dropped."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows of different lengths")
        is_zero = field.is_zero
        entries = {}
        for i, r in enumerate(rows):
            row = {j: c for j, c in enumerate(r) if not is_zero(c)}
            if row:
                entries[i] = row
        self.field, self.entries, self.nrows, self.ncols = field, entries, len(rows), ncols

    @classmethod
    def from_entries(cls, field: Field, entries: dict[int, dict], nrows: int, ncols: int) -> "LinearMap":
        """The map with the sparse rows ``entries``, {i: {j: coefficient}},
        which hold no zero coefficient; empty rows are dropped.  A map with
        no rows has no columns either, as a dense matrix would."""
        m = cls.__new__(cls)
        m.field = field
        m.entries = {i: row for i, row in entries.items() if row}
        m.nrows, m.ncols = nrows, ncols if nrows else 0
        return m

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int | None = None) -> "LinearMap":
        return cls.from_entries(field, {}, nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinearMap":
        one = field.one()
        return cls.from_entries(field, {i: {i: one} for i in range(n)}, n, n)

    @classmethod
    def from_flat(cls, field: Field, vec, nrows: int, ncols: int, start: int = 0) -> "LinearMap":
        """The map whose row-major entries are those of ``vec`` at the
        indices start .. start + nrows * ncols - 1; the others are not read.
        ``vec`` is a sparse vector {index: nonzero coefficient}, as
        ``sparse_nullspace`` gives it, or a dense list, whose zeros are
        dropped."""
        if isinstance(vec, list):
            vec = {c: x for c, x in enumerate(vec) if not field.is_zero(x)}
        entries: dict[int, dict] = {}
        end = start + nrows * ncols
        for c, x in vec.items():
            if start <= c < end:
                i, j = divmod(c - start, ncols)
                row = entries.get(i)
                if row is None:
                    entries[i] = {j: x}
                else:
                    row[j] = x
        return cls.from_entries(field, entries, nrows, ncols)

    def vector(self, start: int = 0) -> dict:
        """The entries as a sparse vector, entry (i, j) at start + i * ncols + j:
        the inverse of ``from_flat``."""
        n = self.ncols
        return {start + i * n + j: x for i, row in self.entries.items() for j, x in row.items()}

    def flat(self) -> list:
        """The entries row by row, as one dense list."""
        n = self.ncols
        out = [self.field.zero()] * (self.nrows * n)
        for i, row in self.entries.items():
            for j, x in row.items():
                out[i * n + j] = x
        return out

    @property
    def rows(self) -> list[list]:
        """The dense rows, built anew at each access."""
        n = self.ncols
        flat = self.flat()
        return [flat[i * n : (i + 1) * n] for i in range(self.nrows)]

    def apply(self, v: list) -> list:
        """Image of the dense coordinate vector v (v in the source basis)."""
        F = self.field
        out = [F.zero()] * self.ncols
        for i, c in enumerate(v):
            row = self.entries.get(i)
            if row is None or F.is_zero(c):
                continue
            for j, x in row.items():
                out[j] = F.add(out[j], F.mul(c, x))
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self then other: (self.compose(other))(v) = other(self(v)).  Over
        GF(p) each entry is summed in ints and reduced once."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in composition")
        F = self.field
        p, right = F.p, other.entries
        add, mul, zero = F.add, F.mul, F.zero()
        out = {}
        for i, row in self.entries.items():
            acc: dict = {}
            if p:
                for k, c in row.items():
                    for j, x in right.get(k, {}).items():
                        acc[j] = acc.get(j, 0) + c * x
                out[i] = {j: y for j, x in acc.items() if (y := x % p)}
            else:
                for k, c in row.items():
                    for j, x in right.get(k, {}).items():
                        acc[j] = add(acc.get(j, zero), mul(c, x))
                out[i] = {j: x for j, x in acc.items() if not F.is_zero(x)}
        return LinearMap.from_entries(F, out, self.nrows, other.ncols)

    def add(self, other: "LinearMap") -> "LinearMap":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch in sum")
        F = self.field
        out = {i: dict(row) for i, row in self.entries.items()}
        for i, row in other.entries.items():
            acc = out.setdefault(i, {})
            for j, x in row.items():
                y = F.add(acc[j], x) if j in acc else x
                if F.is_zero(y):
                    del acc[j]
                else:
                    acc[j] = y
        return LinearMap.from_entries(F, out, self.nrows, self.ncols)

    def scale(self, c) -> "LinearMap":
        F = self.field
        out = {
            i: {j: y for j, x in row.items() if not F.is_zero(y := F.mul(c, x))}
            for i, row in self.entries.items()
        }
        return LinearMap.from_entries(F, out, self.nrows, self.ncols)

    def power(self, k: int) -> "LinearMap":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square map")
        acc = LinearMap.identity(self.field, self.nrows)
        for _ in range(k):
            acc = acc.compose(self)
        return acc

    def kernel(self) -> list[list]:
        """Canonical basis of {v : v @ M = 0}, as dense vectors."""
        return kernel_of_map([self.entries.get(i, {}) for i in range(self.nrows)], self.field)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        F = self.field
        mine, theirs = self.entries, other.entries
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and mine.keys() == theirs.keys()
            and all(
                row.keys() == theirs[i].keys() and all(F.eq(x, theirs[i][j]) for j, x in row.items())
                for i, row in mine.items()
            )
        )

    def __repr__(self):
        return f"LinearMap({self.nrows}x{self.ncols})"

    def to_json(self) -> list:
        """The dense rows, each entry formatted by the field."""
        F = self.field
        zero = F.fmt(F.zero())
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, row in self.entries.items():
            r = out[i]
            for j, x in row.items():
                r[j] = F.fmt(x)
        return out
