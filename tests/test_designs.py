"""Latin square, MOLS, and transversal design tests.

Orthogonality is re-checked here with an independent set-based count
rather than the library's own validator, so the two implementations
vouch for each other.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from induced_decomp import designs, oracle
from induced_decomp.blowup import CopyArray, PatternSignature
from induced_decomp.designs import (
    CountExceedsBound,
    InsufficientSquares,
    LatinSquare,
    MolsFamily,
    SameGroup,
    TransversalDesign,
    UnsupportedOrder,
    block_through,
    cyclic_latin,
    macneish,
    mols,
    mols_prime_power,
    mols_product,
    td_from_json,
    td_from_mols,
    verify_td,
)


def orthogonal_by_pair_set(a: LatinSquare, b: LatinSquare) -> bool:
    """Independent check: superimposed symbol pairs must all differ."""
    pairs = set()
    for x in range(a.order):
        for y in range(a.order):
            pairs.add((int(a.grid[x, y]), int(b.grid[x, y])))
    return len(pairs) == a.order ** 2


def test_cyclic_latin_frozen():
    sq = cyclic_latin(5)
    assert sq.grid[0].tolist() == [1, 2, 3, 4, 5]
    assert sq.grid[1].tolist() == [2, 3, 4, 5, 1]
    assert sq.symbol(5, 5) == 4


# row or column 0 used to read numpy's index -1 (symbol(0, 0) gave 4 on
# mols(5, 1)[0]), and one past the order raised IndexError
@pytest.mark.parametrize("x,y", [(0, 0), (0, 1), (1, 0), (6, 1), (1, 6), (-1, 2)])
def test_symbol_rejects_cells_outside_the_square(x, y):
    with pytest.raises(ValueError, match=rf"^cell \({x}, {y}\) out of range 1\.\.5$"):
        mols(5, 1)[0].symbol(x, y)


def test_cyclic_latin_smallest_orders():
    assert cyclic_latin(1).grid.tolist() == [[1]]
    assert cyclic_latin(3).grid.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]


def test_latin_square_rejects_repeats():
    with pytest.raises(ValueError, match="row 1"):
        LatinSquare(order=2, grid=np.array([[1, 1], [2, 2]]))
    with pytest.raises(ValueError, match="column"):
        LatinSquare(order=2, grid=np.array([[1, 2], [1, 2]]))


def test_latin_square_grid_immutable():
    sq = cyclic_latin(3)
    with pytest.raises(ValueError):
        sq.grid[0, 0] = 2


def test_mols_prime_power_frozen():
    fam = mols_prime_power(3, 2)
    assert fam.squares[0].grid.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    assert fam.squares[1].grid.tolist() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mols_prime_power_full_family(q):
    fam = mols_prime_power(q, q - 1)
    assert len(fam) == q - 1
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            assert orthogonal_by_pair_set(fam.squares[i], fam.squares[j])


def test_mols_prime_power_count_limit():
    with pytest.raises(CountExceedsBound):
        mols_prime_power(4, 4)


def test_mols_family_validates_orthogonality():
    sq = cyclic_latin(3)
    with pytest.raises(ValueError, match="not orthogonal"):
        MolsFamily(order=3, squares=(sq, sq))
    # pairs (0, 1) and (0, 2) are orthogonal, so the first bad pair is (1, 2)
    a, b = mols(5, 2).squares
    with pytest.raises(ValueError, match="^squares 1 and 2 are not orthogonal$"):
        MolsFamily(order=5, squares=(a, b, b))


@pytest.mark.parametrize("n,expected", [(2, 1), (6, 1), (12, 2), (10, 1), (9, 8), (36, 3)])
def test_macneish_values(n, expected):
    assert macneish(n) == expected


def test_macneish_order_one():
    assert macneish(1) == math.inf


def test_mols_product_order_12():
    fam = mols(12, 2)
    assert fam.order == 12 and len(fam) == 2
    assert orthogonal_by_pair_set(fam.squares[0], fam.squares[1])


def test_mols_product_coprime_orders():
    a = mols_prime_power(3, 2)
    b = mols_prime_power(7, 2)
    fam = mols_product(a, b, 2)
    assert fam.order == 21 and len(fam) == 2
    assert orthogonal_by_pair_set(fam.squares[0], fam.squares[1])
    assert len(mols_product(a, b, 0)) == 0


def test_mols_product_count_limit():
    a = mols_prime_power(4, 3)
    b = mols_prime_power(3, 2)
    with pytest.raises(CountExceedsBound):
        mols_product(a, b, 3)


def test_mols_refuses_above_bound():
    with pytest.raises(UnsupportedOrder, match="bound 1"):
        mols(6, 2)
    with pytest.raises(UnsupportedOrder):
        mols(10, 2)


def test_mols_order_one_any_count():
    fam = mols(1, 5)
    assert len(fam) == 5
    assert fam.squares[0].grid.tolist() == [[1]]


def test_mols_count_zero():
    assert len(mols(7, 0)) == 0


def test_td_from_mols_frozen():
    td = td_from_mols(mols(3, 1), 3)
    assert td.blocksize == 3 and td.groupsize == 3
    assert len(td.blocks) == 9
    assert td.blocks[0] == ((1, 1), (2, 1), (3, 1))
    assert td.blocks[1] == ((1, 1), (2, 2), (3, 2))


def test_td_k2_is_all_pairs():
    td = td_from_mols(mols(4, 0), 2)
    assert len(td.blocks) == 16
    assert verify_td(td) == []


def test_td_order_one():
    td = td_from_mols(mols(1, 0), 2)
    assert td.blocks == (((1, 1), (2, 1)),)
    assert verify_td(td) == []


def test_td_insufficient_squares():
    with pytest.raises(InsufficientSquares):
        td_from_mols(mols(5, 1), 4)


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (4, 3), (5, 4), (3, 12)])
def test_td_verifies(k, n):
    td = td_from_mols(mols(n, k - 2), k)
    assert verify_td(td) == []
    assert len(td.blocks) == n * n


def test_verify_td_deleted_block():
    """Removing one block of TD(3,2) uncovers exactly its three pairs."""
    td = td_from_mols(mols(2, 1), 3)
    damaged = TransversalDesign(
        blocksize=3, groupsize=2, blocks=td.blocks[1:]
    )
    violations = verify_td(damaged)
    assert len(violations) == 3
    assert all("covered 0 times" in v for v in violations)


def test_verify_td_duplicated_block():
    td = td_from_mols(mols(2, 1), 3)
    damaged = TransversalDesign(
        blocksize=3, groupsize=2, blocks=td.blocks + (td.blocks[0],)
    )
    violations = verify_td(damaged)
    assert len(violations) == 3
    assert all("covered 2 times" in v for v in violations)


def test_verify_td_non_transversal_block():
    bad = TransversalDesign(
        blocksize=3,
        groupsize=2,
        blocks=(((1, 1), (1, 2), (2, 1)),),
    )
    violations = verify_td(bad)
    assert any("not a transversal" in v for v in violations)
    assert any("within-group" in v for v in violations)


def test_verify_td_damaged_output_frozen():
    """The full violation list, text and order, for a TD(4, 5) with a block
    deleted, a block duplicated, a block hitting group 1 twice and a block
    of length k - 1."""
    blocks = list(td_from_mols(mols(5, 2), 4).blocks)
    assert blocks[7] == ((1, 2), (2, 3), (3, 4), (4, 5))
    damaged = TransversalDesign(
        blocksize=4,
        groupsize=5,
        blocks=tuple(
            blocks[1:7]
            + [((1, 2), (1, 4), (3, 1), (4, 5))]
            + blocks[8:11]
            + [blocks[11][:3]]
            + blocks[12:]
            + [blocks[3]]
        ),
    )
    assert verify_td(damaged) == [
        "block 6 is not a transversal: ((1, 2), (1, 4), (3, 1), (4, 5))",
        "block 10 is not a transversal: ((1, 3), (2, 2), (3, 4))",
        "within-group pair g1:2/g1:4 covered 1 times",
        "pair g1:1/g2:1 covered 0 times",
        "pair g1:1/g2:4 covered 2 times",
        "pair g1:2/g2:3 covered 0 times",
        "pair g1:1/g3:1 covered 0 times",
        "pair g1:1/g3:4 covered 2 times",
        "pair g1:2/g3:1 covered 2 times",
        "pair g1:2/g3:4 covered 0 times",
        "pair g1:4/g3:1 covered 2 times",
        "pair g1:1/g4:1 covered 0 times",
        "pair g1:1/g4:4 covered 2 times",
        "pair g1:3/g4:1 covered 0 times",
        "pair g1:4/g4:5 covered 2 times",
        "pair g2:1/g3:1 covered 0 times",
        "pair g2:3/g3:4 covered 0 times",
        "pair g2:4/g3:4 covered 2 times",
        "pair g2:1/g4:1 covered 0 times",
        "pair g2:2/g4:1 covered 0 times",
        "pair g2:3/g4:5 covered 0 times",
        "pair g2:4/g4:4 covered 2 times",
        "pair g3:1/g4:1 covered 0 times",
        "pair g3:1/g4:5 covered 2 times",
        "pair g3:4/g4:1 covered 0 times",
        "pair g3:4/g4:4 covered 2 times",
        "pair g3:4/g4:5 covered 0 times",
    ]


def reference_violations(td: TransversalDesign) -> list[str]:
    """verify_td written as plain loops over a pair-count dict."""
    violations = []
    k, n = td.blocksize, td.groupsize
    for b, block in enumerate(td.blocks):
        if len(block) != k or sorted(g for g, _ in block) != list(range(1, k + 1)):
            violations.append(f"block {b} is not a transversal: {block}")
    counts = {}
    for block in map(sorted, td.blocks):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                counts[block[i], block[j]] = counts.get((block[i], block[j]), 0) + 1
    for (p1, p2), c in sorted(counts.items()):
        if p1[0] == p2[0]:
            violations.append(f"within-group pair g{p1[0]}:{p1[1]}/g{p2[0]}:{p2[1]} covered {c} times")
    for g1 in range(1, k + 1):
        for g2 in range(g1 + 1, k + 1):
            for x1 in range(1, n + 1):
                for x2 in range(1, n + 1):
                    c = counts.get(((g1, x1), (g2, x2)), 0)
                    if c != 1:
                        violations.append(f"pair g{g1}:{x1}/g{g2}:{x2} covered {c} times")
    return violations


@pytest.mark.parametrize("seed", range(40))
def test_verify_td_matches_reference_on_random_damage(seed):
    """Random subsets of a valid TD plus random blocks of any length,
    including empty blocks and repeated points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(2, min(6, macneish(n) + 3)))
    kept = [b for b in td_from_mols(mols(n, k - 2), k).blocks if rng.random() < 0.8]
    extra = [
        tuple((int(rng.integers(1, k + 1)), int(rng.integers(1, n + 1))) for _ in range(rng.integers(0, k + 2)))
        for _ in range(rng.integers(0, 6))
    ]
    td = TransversalDesign(blocksize=k, groupsize=n, blocks=tuple(kept + extra + kept[:2]))
    assert verify_td(td) == reference_violations(td)


@pytest.mark.parametrize("seed", range(10))
def test_verify_td_ignores_point_order_in_blocks(seed):
    """Blocks listing their points out of group order get the same pair
    violations, and the same non-transversal blocks, as their sorted form."""
    rng = np.random.default_rng(seed)
    k, n = 4, 5
    kept = [b for b in td_from_mols(mols(n, k - 2), k).blocks if rng.random() < 0.9]
    extra = [
        tuple((int(rng.integers(1, k + 1)), int(rng.integers(1, n + 1))) for _ in range(k))
        for _ in range(3)
    ]
    blocks = kept + extra + kept[:2]
    shuffled = tuple(tuple(block[i] for i in rng.permutation(len(block))) for block in blocks)
    in_order = tuple(tuple(sorted(block)) for block in blocks)
    assert shuffled != in_order
    got = verify_td(TransversalDesign(blocksize=k, groupsize=n, blocks=shuffled))
    want = verify_td(TransversalDesign(blocksize=k, groupsize=n, blocks=in_order))
    assert [v for v in got if "covered" in v] == [v for v in want if "covered" in v]
    assert [v.split(":")[0] for v in got if "covered" not in v] == [
        v.split(":")[0] for v in want if "covered" not in v
    ]



def flat_reference(td: TransversalDesign) -> tuple[np.ndarray, np.ndarray]:
    """verify_td's tuple flattening: every (g, x), block after block, and
    each block's length, read off the point tuples one value at a time."""
    lengths = np.fromiter(map(len, td.blocks), dtype=np.int64, count=len(td.blocks))
    values = list(itertools.chain.from_iterable(itertools.chain.from_iterable(td.blocks)))
    return np.array(values, dtype=np.int64).reshape(-1, 2), lengths


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_td_same_on_array_and_tuples(data):
    """A design stored as its index array and the same design given as
    point tuples get identical violation lists, non-transversal blocks
    printed as the same tuples; the array's points flatten as the tuples
    do."""
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(2, min(6, macneish(n) + 2)))
    rows = td_from_mols(mols(n, k - 2), k).points.copy()
    for damage in data.draw(st.lists(
        st.sampled_from(["drop", "duplicate", "entry", "columns"]), max_size=3
    )):
        if damage == "columns":  # every block one point short or long
            width = data.draw(st.sampled_from([rows.shape[1] - 1, rows.shape[1] + 1]))
            rows = np.resize(rows.T, (width, len(rows))).T if width else rows
        elif len(rows) and damage == "drop":
            rows = np.delete(rows, data.draw(st.integers(0, len(rows) - 1)), axis=0)
        elif len(rows) and damage == "duplicate":
            rows = np.concatenate([rows, rows[data.draw(st.integers(0, len(rows) - 1))][None]])
        elif len(rows) and rows.shape[1]:
            b = data.draw(st.integers(0, len(rows) - 1))
            rows[b, data.draw(st.integers(0, rows.shape[1] - 1))] = data.draw(st.integers(-1, n + 1))
    as_array = TransversalDesign(blocksize=k, groupsize=n, blocks=rows)
    as_tuples = TransversalDesign(
        blocksize=k, groupsize=n,
        blocks=tuple(tuple(zip(range(1, rows.shape[1] + 1), row)) for row in rows.tolist()),
    )
    assert as_array.blocks == as_tuples.blocks
    assert verify_td(as_array) == verify_td(as_tuples)
    if all(1 <= g <= k and 1 <= x <= n for block in as_tuples.blocks for g, x in block):
        assert verify_td(as_array) == reference_violations(as_tuples)
    for got, want in zip(as_array._flat(), flat_reference(as_tuples)):
        np.testing.assert_array_equal(got, want)


def test_verify_td_prints_array_blocks_as_tuples():
    rows = td_from_mols(mols(3, 1), 3).points[:, :2]
    violations = verify_td(TransversalDesign(blocksize=3, groupsize=3, blocks=rows))
    assert violations[0] == "block 0 is not a transversal: ((1, 1), (2, 1))"


@pytest.mark.parametrize("point", [(2, 1.5), (2, 1.0), (2, "1")])
def test_points_refuse_non_integer_points(point):
    # blowup reads these rows, so 1.5 must not be truncated to 1
    td = TransversalDesign(blocksize=2, groupsize=2, blocks=(((1, 1), point),))
    with pytest.raises(ValueError, match="non-integer point"):
        td.points


def test_points_of_damaged_tuples():
    """The last point a block lists in each group, 0 where it lists none;
    points outside the groups are ignored."""
    blocks = (((1, 2), (2, 1), (1, 1)), ((2, 2),), ((3, 1), (1, 2), (2, 5)))
    td = TransversalDesign(blocksize=2, groupsize=2, blocks=blocks)
    assert td.points.tolist() == [[1, 1], [0, 2], [2, 5]]


def test_block_array_must_be_integers():
    with pytest.raises(ValueError, match="2-d of integers"):
        TransversalDesign(blocksize=2, groupsize=2, blocks=np.ones((4, 2)))
    with pytest.raises(ValueError, match="2-d of integers"):
        TransversalDesign(blocksize=2, groupsize=2, blocks=np.ones(4, dtype=int))


def test_block_through_any_point_order():
    td = td_from_mols(mols(3, 1), 3)
    reversed_td = TransversalDesign(
        blocksize=3, groupsize=3, blocks=tuple(block[::-1] for block in td.blocks)
    )
    assert verify_td(reversed_td) == []
    assert block_through(reversed_td, 2, 2, 1, 1) == ((3, 2), (2, 2), (1, 1))


def test_verify_td_reports_out_of_range_points():
    blocks = list(td_from_mols(mols(3, 1), 3).blocks)
    blocks[2] = ((1, 1), (2, 4), (3, 0))
    blocks[5] = ((4, 1), (2, 2), (3, 3))
    assert verify_td(TransversalDesign(blocksize=3, groupsize=3, blocks=tuple(blocks))) == [
        "block 2 has point (2, 4) outside 1..3 x 1..3",
        "block 2 has point (3, 0) outside 1..3 x 1..3",
        "block 5 has point (4, 1) outside 1..3 x 1..3",
    ]


@pytest.mark.parametrize("bad", [(1, 1.5), (1, True), (1.0, 2), (1, "2")])
def test_verify_td_reports_non_integer_points(bad):
    # such points used to be truncated or accepted: (1, 1.5) read as (1, 1)
    blocks = list(td_from_mols(mols(2, 0), 2).blocks)
    blocks[0] = (bad, (2, 1))
    blocks[3] = ((1, 2), (2, 2.0))
    assert verify_td(TransversalDesign(blocksize=2, groupsize=2, blocks=tuple(blocks))) == [
        f"block 0 has non-integer point {bad!r}",
        "block 3 has non-integer point (2, 2.0)",
    ]


@pytest.mark.parametrize("text", ["1_0", " 7 ", "+7", "\u0663", "", "-", "7\n", "0x7"])
def test_json_int_accepts_only_ascii_decimal(text):
    with pytest.raises(ValueError, match="expected an integer"):
        designs.json_int(text)


def test_json_int_reads_decimal_strings():
    assert [designs.json_int(t) for t in ("7", "-3", "007", 12)] == [7, -3, 7, 12]


@pytest.mark.parametrize("point", ["g1:1_0", "g1: 2", "g+1:2"])
def test_td_json_rejects_malformed_points(point):
    data = td_from_mols(mols(3, 1), 3).to_json_dict()
    data["blocks"][0][0] = point
    with pytest.raises(ValueError, match="expected an integer"):
        td_from_json(data)


@pytest.mark.parametrize("point", [5, None, "g1:2:3", "1:2", "g1:x", ["g1:2"]])
def test_td_json_names_malformed_point(point):
    # 5 used to raise AttributeError, "g1:2:3" an unpacking error, and
    # "1:2" was read as g1:2
    data = td_from_mols(mols(3, 1), 3).to_json_dict()
    data["blocks"][0][0] = point
    with pytest.raises(ValueError, match=f"malformed point {re.escape(repr(point))}"):
        td_from_json(data)


def test_block_through_frozen():
    td = td_from_mols(mols(3, 1), 3)
    assert block_through(td, 1, 1, 2, 2) == ((1, 1), (2, 2), (3, 2))
    # order of the two query points does not matter
    assert block_through(td, 2, 2, 1, 1) == ((1, 1), (2, 2), (3, 2))


def test_block_through_cross_pair_design():
    # with k = 2 the blocks are exactly the cross pairs
    td = td_from_mols(mols(3, 0), 2)
    assert block_through(td, 2, 1, 3, 2) == ((1, 2), (2, 3))


def test_block_through_same_group():
    td = td_from_mols(mols(3, 1), 3)
    with pytest.raises(SameGroup):
        block_through(td, 1, 1, 2, 1)


def test_block_through_missing_pair():
    td = td_from_mols(mols(2, 1), 3)
    damaged = TransversalDesign(blocksize=3, groupsize=2, blocks=td.blocks[1:])
    removed = td.blocks[0]
    with pytest.raises(LookupError):
        block_through(damaged, removed[0][1], 1, removed[1][1], 2)


def test_td_json_round_trip():
    td = td_from_mols(mols(4, 2), 4)
    data = json.loads(json.dumps(td.to_json_dict()))
    back = td_from_json(data)
    assert back.blocks == td.blocks
    assert back.blocksize == td.blocksize and back.groupsize == td.groupsize


def test_td_json_reads_blocks_in_group_order():
    td = td_from_mols(mols(4, 2), 4)
    data = json.loads(json.dumps(td.to_json_dict()))
    data["blocks"] = [block[::-1] for block in data["blocks"]]
    assert td_from_json(data).blocks == td.blocks


@pytest.mark.parametrize("field,value", [("k", 3.9), ("n", 3.0), ("k", True), ("n", None)])
def test_td_json_rejects_non_integer_sizes(field, value):
    data = td_from_mols(mols(3, 1), 3).to_json_dict()
    data[field] = value
    with pytest.raises(ValueError, match="expected an integer"):
        td_from_json(data)


def test_td_json_point_format():
    td = td_from_mols(mols(2, 0), 2)
    data = td.to_json_dict()
    assert data["groups"][0] == ["g1:1", "g1:2"]
    assert data["blocks"][0] == ["g1:1", "g2:1"]


def test_construction_deterministic():
    a = json.dumps(td_from_mols(mols(9, 3), 5).to_json_dict(), sort_keys=True)
    b = json.dumps(td_from_mols(mols(9, 3), 5).to_json_dict(), sort_keys=True)
    assert a == b


def test_latin_square_json_round_trip():
    sq = cyclic_latin(4)
    back = designs.latin_square_from_json(json.loads(json.dumps(sq.to_json_dict())))
    assert (back.grid == sq.grid).all()


@pytest.mark.parametrize("data,match", [
    ({"order": 2.7, "grid": [[1.5, 2.2], [2.9, 1.1]]}, "expected an integer"),
    ({"order": 2, "grid": [[1.0, 2.0], [2.0, 1.0]]}, "grid entries must be integers"),
    ({"order": 2, "grid": [["1", "2"], ["2", "1"]]}, "grid entries must be integers"),
    ({"order": 2.7, "grid": [[1, 2], [2, 1]]}, "expected an integer"),
])
def test_latin_square_json_rejects_non_integers(data, match):
    with pytest.raises(ValueError, match=match):
        designs.latin_square_from_json(data)


@pytest.mark.parametrize("bad", ["order", "grid"])
def test_mols_family_json_rejects_non_integers(bad):
    data = json.loads(json.dumps(mols(3, 2).to_json_dict()))
    if bad == "order":
        data["order"] = 3.5
    else:
        data["squares"][1]["grid"][0][0] = 1.5
    with pytest.raises(ValueError):
        designs.mols_family_from_json(data)


# Rosa's alpha-valuations split K_v into K_{a,b} copies when v = 1 mod 2ab;
# Bose's and Skolem's triple systems split K_v into triangles when v = 1 or
# 3 mod 6.  The rows are checked by oracle's verifier, which imports no
# constructor.
CONSTRUCTIONS = {  # parts: (rows of K_v up to a cap, the v mod modulus it takes, modulus)
    (1, 2): (lambda v, cap: designs.alpha_valuation_rows(1, 2, v, cap), (1,), 4),
    (1, 3): (lambda v, cap: designs.alpha_valuation_rows(1, 3, v, cap), (1,), 6),
    (2, 2): (lambda v, cap: designs.alpha_valuation_rows(2, 2, v, cap), (1,), 8),
    (2, 3): (lambda v, cap: designs.alpha_valuation_rows(2, 3, v, cap), (1,), 12),
    (1, 1, 1): (designs.steiner_triple_rows, (1, 3), 6),
}


@pytest.mark.parametrize("parts", CONSTRUCTIONS)
def test_constructions_split_the_complete_graph(parts):
    construct, residues, modulus = CONSTRUCTIONS[parts]
    pattern = PatternSignature(parts)
    for v in range(151):
        rows = construct(v, 10**6)
        if v == 0 or v % modulus not in residues:
            assert rows is None, v
            continue
        assert rows.dtype == np.int64 and rows.shape == (
            v * (v - 1) // 2 // pattern.edge_count, pattern.order), v
        copies = CopyArray(rows, parts)
        assert oracle.verify_decomposition(
            oracle.complete_graph(v), pattern, copies, induced=False) == [], v


def test_constructions_refuse_past_their_cap_before_allocating(monkeypatch):
    # K_2001 needs 1,000,500 copies of K_{1,2}, K_2451 needs 1,000,825
    # triangles; with numpy taken away, any array built would raise instead
    monkeypatch.setattr(designs, "np", None)
    with pytest.raises(CountExceedsBound, match=r"^construction capped at 1000000 copies, "
                                                r"K_2001 needs 1000500$"):
        designs.alpha_valuation_rows(1, 2, 2001, 10**6)
    with pytest.raises(CountExceedsBound, match=r"^construction capped at 1000000 copies, "
                                                r"K_2451 needs 1000825$"):
        designs.steiner_triple_rows(2451, 10**6)
    # at the cap the same orders build (numpy again)
    monkeypatch.undo()
    assert designs.alpha_valuation_rows(1, 2, 2001, 1_000_500).shape == (1_000_500, 3)
    assert designs.steiner_triple_rows(2451, 1_000_825).shape == (1_000_825, 3)
