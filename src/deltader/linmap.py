"""Dense exact matrices in fixed bases.

A :class:`LinearMap` stores the images of basis vectors as rows:
``rows[i][j]`` is the coefficient of e_j in D(e_i).  Application to a
coordinate (row) vector v is v @ M.
"""

from __future__ import annotations

from .fields import Field


class LinearMap:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: list[list]):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int | None = None) -> "LinearMap":
        ncols = nrows if ncols is None else ncols
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinearMap":
        m = cls.zero(field, n, n)
        one = field.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    @classmethod
    def from_flat(cls, field: Field, vec: list, nrows: int, ncols: int, start: int = 0) -> "LinearMap":
        """The map whose rows are vec[start:start + nrows * ncols], ncols
        entries each.  The slices are fresh lists, so they are not copied
        again."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = [vec[start + i * ncols : start + (i + 1) * ncols] for i in range(nrows)]
        m.nrows, m.ncols = nrows, ncols if nrows else 0
        return m

    def flat(self) -> list:
        return [c for row in self.rows for c in row]

    def apply(self, v: list) -> list:
        """Image of the coordinate vector v (v in the source basis)."""
        F = self.field
        out = [F.zero()] * self.ncols
        for i, c in enumerate(v):
            if F.is_zero(c):
                continue
            row = self.rows[i]
            for j in range(self.ncols):
                if not F.is_zero(row[j]):
                    out[j] = F.add(out[j], F.mul(c, row[j]))
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self then other: (self.compose(other))(v) = other(self(v))."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in composition")
        F = self.field
        out = LinearMap.zero(F, self.nrows, other.ncols)
        for i in range(self.nrows):
            row = self.rows[i]
            orow = out.rows[i]
            for k in range(self.ncols):
                c = row[k]
                if F.is_zero(c):
                    continue
                brow = other.rows[k]
                for j in range(other.ncols):
                    if not F.is_zero(brow[j]):
                        orow[j] = F.add(orow[j], F.mul(c, brow[j]))
        return out

    def add(self, other: "LinearMap") -> "LinearMap":
        F = self.field
        return LinearMap(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def scale(self, c) -> "LinearMap":
        F = self.field
        return LinearMap(F, [[F.mul(c, a) for a in row] for row in self.rows])

    def power(self, k: int) -> "LinearMap":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square map")
        acc = LinearMap.identity(self.field, self.nrows)
        for _ in range(k):
            acc = acc.compose(self)
        return acc

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(c) for row in self.rows for c in row)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        F = self.field
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                F.eq(a, b)
                for r1, r2 in zip(self.rows, other.rows)
                for a, b in zip(r1, r2)
            )
        )

    def __repr__(self):
        return f"LinearMap({self.nrows}x{self.ncols})"

    def to_json(self) -> list:
        F = self.field
        return [[F.fmt(c) for c in row] for row in self.rows]
