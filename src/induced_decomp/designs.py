"""Latin squares, mutually orthogonal families, and transversal designs.

The constructions here are classical.  For a prime power q the squares
L_lam[x][y] = lam*x + y over GF(q), lam ranging over the nonzero field
elements, form q-1 mutually orthogonal Latin squares (MOLS).  Products
of MOLS families give MOLS of composite orders: min over the prime-power
factors p_i**e_i of n of (p_i**e_i - 1) squares are always reachable
this way (the MacNeish bound).  A family of k-2 MOLS of order n is
equivalent to a transversal design TD(k, n): k groups of n points and
n**2 blocks, each block meeting every group exactly once, such that
every pair of points from distinct groups lies in exactly one block.

Orders beyond the MacNeish bound (where deeper direct constructions
would be needed) are refused rather than approximated.

Rosa's alpha-valuations (K_{a,b}) and Steiner triple systems split K_v
into pattern copies, int rows on 1..v, up to a stated count of copies.

All indices are 1-based: rows, columns and symbols of a Latin square
run 1..n, groups of a TD run 1..k and points within a group 1..n.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .gf import NotPrimePower, factorize, galois_field

__all__ = [
    "CountExceedsBound",
    "InsufficientSquares",
    "LatinSquare",
    "MolsFamily",
    "NotPrimePower",
    "SameGroup",
    "TransversalDesign",
    "UnsupportedOrder",
    "alpha_valuation_rows",
    "block_index",
    "block_through",
    "cyclic_latin",
    "json_int",
    "json_ints",
    "latin_square_from_json",
    "macneish",
    "mols",
    "mols_family_from_json",
    "mols_prime_power",
    "mols_product",
    "steiner_triple_rows",
    "td_from_json",
    "td_from_mols",
    "transversal_design",
    "verify_td",
]


class CountExceedsBound(ValueError):
    """More squares or copies requested than the construction will deliver."""


class UnsupportedOrder(ValueError):
    """Requested MOLS count exceeds the MacNeish bound for this order."""


class InsufficientSquares(ValueError):
    """A TD(k, n) needs k-2 squares and the family has fewer."""


class SameGroup(ValueError):
    """block_through needs two points from distinct groups."""


def json_int(value) -> int:
    """An int or ASCII decimal string (-?[0-9]+, nothing around it) read
    from JSON; anything else raises ValueError."""
    if type(value) is int:
        return value
    if type(value) is str and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def json_ints(value) -> tuple[int, ...]:
    """A JSON array of json_int values; a string of digits raises ValueError."""
    if type(value) is not list:
        raise ValueError(f"expected an integer array, got {value!r}")
    return tuple(map(json_int, value))


@dataclass(frozen=True, eq=False)
class JsonTable:
    """An int table cli writes as the list of its rows: cells, each "%d" filled from a row."""
    table: np.ndarray
    cells: object


@dataclass(frozen=True, eq=False)
class LatinSquare:
    """An order-n grid where every row and column is a permutation of 1..n."""

    order: int
    grid: np.ndarray

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        grid = np.asarray(self.grid)
        if grid.shape != (n, n):
            raise ValueError(f"grid shape {grid.shape} does not match order {n}")
        if grid.dtype.kind not in "iu":
            raise ValueError(f"grid entries must be integers, got {grid.dtype} entries")
        grid = grid.astype(np.int64, copy=False)
        for name, lines in (("row", grid), ("column", grid.T)):
            ok = (np.sort(lines, axis=1) == np.arange(1, n + 1)).all(axis=1)
            if not ok.all():
                raise ValueError(f"{name} {int(np.argmin(ok)) + 1} is not a permutation of 1..{n}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    def symbol(self, x: int, y: int) -> int:
        """Symbol at row x, column y (1-based)."""
        if not (1 <= x <= self.order and 1 <= y <= self.order):
            raise ValueError(f"cell ({x}, {y}) out of range 1..{self.order}")
        return int(self.grid[x - 1, y - 1])

    def to_json_dict(self, arrays: bool = False) -> dict:
        return {"order": self.order, "grid": self.grid if arrays else self.grid.tolist()}


def latin_square_from_json(data: dict) -> LatinSquare:
    return LatinSquare(order=json_int(data["order"]), grid=np.array(data["grid"]))


@dataclass(frozen=True, eq=False)
class MolsFamily:
    """Latin squares of one order, pairwise orthogonal.

    Two squares are orthogonal when the n**2 pairs (first symbol, second
    symbol) over all positions are all distinct.  The family may be
    empty; any single square is trivially a family.
    """

    order: int
    squares: tuple[LatinSquare, ...]

    def __post_init__(self):
        object.__setattr__(self, "squares", tuple(self.squares))
        for i, sq in enumerate(self.squares):
            if sq.order != self.order:
                raise ValueError(f"square {i} has order {sq.order}, family has {self.order}")
        n = self.order
        for i in range(len(self.squares)):
            for j in range(i + 1, len(self.squares)):
                joint = (self.squares[i].grid - 1) * n + (self.squares[j].grid - 1)
                if np.bincount(joint.ravel(), minlength=n * n).max() != 1:
                    raise ValueError(f"squares {i} and {j} are not orthogonal")

    def __len__(self) -> int:
        return len(self.squares)

    def __iter__(self):
        return iter(self.squares)

    def __getitem__(self, i: int) -> LatinSquare:
        return self.squares[i]

    def to_json_dict(self, arrays: bool = False) -> dict:
        return {"order": self.order, "squares": [sq.to_json_dict(arrays) for sq in self.squares]}


def mols_family_from_json(data: dict) -> MolsFamily:
    return MolsFamily(
        order=json_int(data["order"]),
        squares=tuple(latin_square_from_json(d) for d in data["squares"]),
    )


def cyclic_latin(n: int) -> LatinSquare:
    """The addition table of Z_n: entry at (x, y) is ((x + y - 2) mod n) + 1."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    idx = np.arange(n)
    return LatinSquare(order=n, grid=(np.add.outer(idx, idx) % n) + 1)


def mols_prime_power(q: int, count: int) -> MolsFamily:
    """count MOLS of prime-power order q via linear maps over GF(q).

    Square number t (t = 1..count) has entry lam_t*x + y at position
    (x, y), where lam_t is the t-th nonzero field element and rows,
    columns and symbols are identified with field elements through the
    integer encoding (value v <-> symbol v + 1).  Requires count <= q-1.
    """
    field = galois_field(q)  # raises NotPrimePower for bad q
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count > q - 1:
        raise CountExceedsBound(f"at most {q - 1} MOLS of order {q} available, requested {count}")
    squares = tuple(
        LatinSquare(order=q, grid=field.add_table[field.mul_table[lam]] + 1)
        for lam in range(1, count + 1)
    )
    return MolsFamily(order=q, squares=squares)


def mols_product(a: MolsFamily, b: MolsFamily, count: int) -> MolsFamily:
    """Pair squares of two families into count MOLS of order a.order * b.order.

    Positions and symbols of the product square are pairs flattened as
    (u - 1) * b.order + v, so the i-th product square has entry
    (A_i[xa][ya] - 1) * b.order + B_i[xb][yb] at the position encoding
    ((xa, xb), (ya, yb)).  Orthogonality is inherited coordinatewise.
    """
    if count > min(len(a), len(b)):
        raise CountExceedsBound(
            f"product of families with {len(a)} and {len(b)} squares yields at most "
            f"{min(len(a), len(b))}, requested {count}"
        )
    nb = b.order
    ones = np.ones((nb, nb), dtype=np.int64)
    squares = []
    for i in range(count):
        grid = np.kron(a.squares[i].grid - 1, ones) * nb + np.tile(b.squares[i].grid, (a.order, a.order))
        squares.append(LatinSquare(order=a.order * b.order, grid=grid))
    return MolsFamily(order=a.order * b.order, squares=tuple(squares))


def macneish(n: int) -> int | float:
    """min over prime-power factors p**e of n of (p**e - 1); infinity for n = 1."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return math.inf
    return min(p**e - 1 for p, e in factorize(n))


def mols(n: int, count: int) -> MolsFamily:
    """count MOLS of order n, refusing counts above the MacNeish bound.

    Prime-power orders use the field construction directly; composite
    orders take products over the prime-power factors in ascending prime
    order.  Order 1 admits any count (the trivial square).
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    bound = macneish(n)
    if count > bound:
        raise UnsupportedOrder(
            f"{count} MOLS of order {n} exceeds the reachable bound {bound}"
        )
    if n == 1:
        one = LatinSquare(order=1, grid=np.array([[1]]))
        return MolsFamily(order=1, squares=(one,) * count)
    if count == 0:
        return MolsFamily(order=n, squares=())
    factors = factorize(n)
    family = mols_prime_power(factors[0][0] ** factors[0][1], count)
    for p, e in factors[1:]:
        family = mols_product(family, mols_prime_power(p**e, count), count)
    return family


class TransversalDesign:
    """k groups of n points with blocks of size k, one point per group.

    Points are (group, index) pairs, 1-based on both coordinates; the
    groups are implicit (group g is {(g, 1), ..., (g, n)}).  A valid
    design covers every pair of points from distinct groups in exactly
    one block.  Point tuples are stored as given (td_from_json lists
    points in group order) and verify_td orders and range-checks them
    itself, so damaged designs can be represented and diagnosed.  An int
    array, as td_from_mols gives, is stored as is: row b lists the index
    of block b's point in group 1, 2, ..., k; blocks reads it on first use.
    """

    def __init__(self, blocksize: int, groupsize: int, blocks):
        if blocksize < 2:
            raise ValueError(f"blocksize must be at least 2, got {blocksize}")
        if groupsize < 1:
            raise ValueError(f"groupsize must be positive, got {groupsize}")
        self.blocksize, self.groupsize = blocksize, groupsize
        self._rows = blocks if isinstance(blocks, np.ndarray) else None
        if self._rows is None:
            self.blocks = blocks
        elif blocks.ndim != 2 or blocks.dtype.kind not in "iu":
            raise ValueError(f"a block array must be 2-d of integers, got {blocks.dtype} {blocks.shape}")

    @functools.cached_property
    def blocks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(zip(itertools.count(1), row)) for row in self._rows.tolist())

    def _flat(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(g, x) of every point, block after block, and each block's
        length; None when a coordinate is not an int."""
        if self._rows is not None:
            b, k = self._rows.shape
            return np.stack((np.tile(np.arange(1, k + 1), b), self._rows.ravel()), 1), np.full(b, k)
        lengths = np.fromiter(map(len, self.blocks), dtype=np.int64, count=len(self.blocks))
        values = list(itertools.chain.from_iterable(itertools.chain.from_iterable(self.blocks)))
        if set(map(type, values)) - {int}:
            return None
        return np.fromiter(values, dtype=np.int64, count=len(values)).reshape(-1, 2), lengths

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Row b holds the index of block b's point in group 1, 2, ..., k:
        the stored array, or for point tuples the last point a block lists
        in each group, 0 where it lists none."""
        if self._rows is not None:
            return self._rows
        rows = [[dict(block).get(g, 0) for g in range(1, self.blocksize + 1)] for block in self.blocks]
        if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
            raise ValueError("a block has a non-integer point")
        return np.array(rows, dtype=np.int64).reshape(-1, self.blocksize)

    @functools.cached_property
    def _pair_to_block(self) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
        index: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
        for b, block in enumerate(self.blocks):
            for pair in itertools.combinations(sorted(block), 2):
                index.setdefault(pair, b)
        return index

    def to_json_dict(self, arrays: bool = False) -> dict:
        """With arrays, an int array design's blocks are its rows as a JsonTable."""
        k, n = self.blocksize, self.groupsize
        groups = [[f"g{g}:{x}" for x in range(1, n + 1)] for g in range(1, k + 1)]
        if arrays and self._rows is not None:
            cells = [f"g{g}:%d" for g in range(1, self._rows.shape[1] + 1)]
            blocks: object = JsonTable(self._rows, cells)
        else:
            blocks = [[f"g{g}:{x}" for g, x in block] for block in self.blocks]
        return {"k": k, "n": n, "groups": groups, "blocks": blocks}


def _parse_point(text) -> tuple[int, int]:
    """Point (g, x) from its id "g<g>:<x>"; ValueError naming anything else."""
    if type(text) is not str or not text.startswith("g") or text.count(":") != 1:
        raise ValueError(f"malformed point {text!r}, expected 'g<int>:<int>'")
    g, x = text[1:].split(":")
    try:
        return json_int(g), json_int(x)
    except ValueError as exc:
        raise ValueError(f"malformed point {text!r}: {exc}") from None


def td_from_json(data: dict) -> TransversalDesign:
    return TransversalDesign(
        blocksize=json_int(data["k"]),
        groupsize=json_int(data["n"]),
        blocks=tuple(tuple(sorted(map(_parse_point, block))) for block in data["blocks"]),
    )


def td_from_mols(family: MolsFamily, k: int) -> TransversalDesign:
    """TD(k, n) from k-2 MOLS of order n, stored as its (n**2, k) index array.

    Block (x, y) is {(1, x), (2, y), (3, L1[x][y]), ..., (k, L_{k-2}[x][y])};
    blocks are emitted in lexicographic (x, y) order.
    """
    if k < 2:
        raise ValueError(f"blocksize must be at least 2, got {k}")
    if len(family) < k - 2:
        raise InsufficientSquares(
            f"TD({k}, {family.order}) needs {k - 2} squares, family has {len(family)}"
        )
    n = family.order
    index = np.arange(n)
    columns = [np.repeat(index, n), np.tile(index, n)]
    columns += [sq.grid.ravel() - 1 for sq in family.squares[: k - 2]]
    # block (x, y) takes from group g the point indexed (0-based) by column g
    rows = np.stack(columns, axis=1) + 1
    rows.setflags(write=False)
    return TransversalDesign(blocksize=k, groupsize=n, blocks=rows)


def transversal_design(k: int, n: int) -> TransversalDesign:
    """TD(k, n) from k-2 MOLS of order n, the one place the package builds it."""
    if k < 2:
        raise ValueError(f"blocksize must be at least 2, got {k}")
    return td_from_mols(mols(n, k - 2), k)


def verify_td(td: TransversalDesign) -> list[str]:
    """Exhaustively check the design axioms; return a list of violations.

    Points with a coordinate that is not an int (a float or a bool, say)
    are reported alone, and failing that so are points outside 1..k x 1..n.
    Otherwise checks block transversality (size k, one point per group)
    and that every pair of points from distinct groups is covered exactly
    once while no within-group pair is covered at all, whatever order
    blocks list their points in.  An empty list means the design is valid.
    """
    k, n = td.blocksize, td.groupsize
    size = k * n
    flat_lengths = td._flat()
    if flat_lengths is None:
        return [
            f"block {b} has non-integer point {pt!r}"
            for b, block in enumerate(td.blocks) for pt in block if set(map(type, pt)) - {int}
        ]
    flat, lengths = flat_lengths
    block_of = np.repeat(np.arange(len(lengths)), lengths)
    off_range = (flat < 1) | (flat > (k, n))
    if off_range.any():
        outside = off_range.any(axis=1)
        bad = zip(block_of[outside].tolist(), flat[outside].tolist())
        return [f"block {b} has point ({g}, {x}) outside 1..{k} x 1..{n}" for b, (g, x) in bad]
    # point (g, x) is (g - 1) * n + x - 1, so a pair key (smaller id,
    # larger id) sorts like the point pair
    ids = (flat[:, 0] - 1) * n + flat[:, 1] - 1
    # column b counts block b's points in each group; a transversal has one
    per_group = np.bincount(ids // n * len(lengths) + block_of, minlength=k * len(lengths))
    not_transversal = (per_group.reshape(k, -1) != 1).any(axis=0)
    starts = np.cumsum(lengths) - lengths
    keys = [np.zeros(0, dtype=np.int64)]
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        which = np.flatnonzero(lengths == length)
        block_ids = ids[starts[which, None] + np.arange(length)]
        i, j = np.triu_indices(length, 1)
        a, b = block_ids[:, i], block_ids[:, j]
        keys.append((np.minimum(a, b) * size + np.maximum(a, b)).ravel())
    counts = np.bincount(np.concatenate(keys), minlength=size * size).reshape(k, n, k, n)

    violations = [
        f"block {b} is not a transversal: {td.blocks[b]}"
        for b in np.flatnonzero(not_transversal).tolist()
    ]
    for g in range(k):
        within = counts[g, :, g, :]
        for x1, x2 in zip(*(axis.tolist() for axis in np.nonzero(within))):
            violations.append(
                f"within-group pair g{g + 1}:{x1 + 1}/g{g + 1}:{x2 + 1} covered {within[x1, x2]} times"
            )
    # cross counts indexed (g1 < g2 pair, x1, x2); nonzero walks them in
    # (g1, g2, x1, x2) order
    g1s, g2s = np.triu_indices(k, 1)
    cross = counts[g1s, :, g2s, :]
    pair, x1s, x2s = np.nonzero(cross != 1)
    bad = zip(g1s[pair].tolist(), g2s[pair].tolist(), x1s.tolist(), x2s.tolist())
    for (g1, g2, x1, x2), c in zip(bad, cross[pair, x1s, x2s].tolist()):
        violations.append(f"pair g{g1 + 1}:{x1 + 1}/g{g2 + 1}:{x2 + 1} covered {c} times")
    return violations


def block_index(
    td: TransversalDesign, index_a: int, group_a: int, index_b: int, group_b: int
) -> int:
    """Position in td.blocks of the unique block containing (group_a,
    index_a) and (group_b, index_b)."""
    if group_a == group_b:
        raise SameGroup(f"both points lie in group {group_a}")
    key = tuple(sorted(((group_a, index_a), (group_b, index_b))))
    try:
        return td._pair_to_block[key]
    except KeyError:
        raise LookupError(f"no block covers g{group_a}:{index_a} and g{group_b}:{index_b}") from None


def block_through(
    td: TransversalDesign, index_a: int, group_a: int, index_b: int, group_b: int
) -> tuple[tuple[int, int], ...]:
    """The unique block containing (group_a, index_a) and (group_b, index_b)."""
    return td.blocks[block_index(td, index_a, group_a, index_b, group_b)]


def alpha_valuation_rows(a: int, b: int, v: int, cap: int) -> np.ndarray | None:
    """Copies of K_{a,b} tiling K_v (a-class, then b-class) when v = 2abs + 1,
    else None: Rosa's alpha-valuation, the base copies A = {0..a-1} and
    B_j = {a, 2a, ..., ab} + j*ab for j < s developed mod v."""
    s, rest = divmod(v - 1, 2 * a * b)
    if v < 1 or rest:
        return None
    if v * s > cap:
        raise CountExceedsBound(f"construction capped at {cap} copies, K_{v} needs {v * s}")
    base = np.hstack([np.broadcast_to(np.arange(a), (s, a)),
                      a * np.arange(1, b + 1) + a * b * np.arange(s)[:, None]])
    return ((base + np.arange(v)[:, None, None]) % v + 1).reshape(-1, a + b)


def steiner_triple_rows(v: int, cap: int) -> np.ndarray | None:
    """Triangles tiling K_v when v = 1 or 3 mod 6, else None (Lindner and
    Rodger, Design Theory, ch. 1); point (x, i) of Z_m x Z_3 is i*m + x + 1.
    Bose (v = 6n + 3, m = 2n + 1, x o y = (x + y)/2 mod m) and Skolem
    (v = 6n + 1, m = 2n, x o y = (x + y) mod m halved, odd sums sent past n)
    take {(x, 0), (x, 1), (x, 2)} for x < m (Skolem: x < n) and
    {(x, i), (y, i), (x o y, i + 1)} for x < y; Skolem adds point v on
    {v, (x + n, i), (x, i + 1)} for x < n."""
    n, rest = divmod(v, 6)
    if v < 1 or rest not in (1, 3):
        return None
    if (count := v * (v - 1) // 6) > cap:
        raise CountExceedsBound(f"construction capped at {cap} copies, K_{v} needs {count}")
    bose, i = rest == 3, np.arange(3)[:, None]
    m = 2 * n + bose
    x, y = np.triu_indices(m, 1)
    total = (x + y) % m
    xy = (n + 1) * total % m if bose else total // 2 + n * (total % 2)
    z = np.arange(0 if bose else n)  # the x < n of Skolem's point v
    rows = [(i * m + np.arange(m if bose else n) + 1).T,
            np.stack([i * m + x + 1, i * m + y + 1, (i + 1) % 3 * m + xy + 1], -1),
            np.stack([np.full((3, len(z)), v), i * m + z + n + 1, (i + 1) % 3 * m + z + 1], -1)]
    return np.concatenate([r.reshape(-1, 3) for r in rows]).astype(np.int64)
