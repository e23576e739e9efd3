"""Transversal designs: construction, verification, damage diagnosis.

A TD(k, n) has k groups of n points and n^2 size-k blocks hitting each
group once, with every cross-group pair covered exactly once.  The
construction routes through k-2 MOLS of order n.
"""

from induced_decomp.designs import (
    TransversalDesign,
    block_through,
    transversal_design,
    verify_td,
)

print("=" * 64)
print("TD(4, 3) from two orthogonal squares of order 3")
print("=" * 64)
td = transversal_design(4, 3)
print(f"groups: {td.blocksize}, group size: {td.groupsize}, blocks: {len(td.blocks)}")
for block in td.blocks:
    print("  ", " ".join(f"g{g}:{x}" for g, x in block))
print("verification violations:", verify_td(td))

print()
print("=" * 64)
print("Each cross-group pair pins down its block")
print("=" * 64)
b = block_through(td, 2, 1, 3, 2)
print("the block through g1:2 and g2:3 is", b)

print()
print("=" * 64)
print("Damaged designs are diagnosed, not rejected at construction")
print("=" * 64)
damaged = TransversalDesign(
    blocksize=td.blocksize, groupsize=td.groupsize, blocks=td.blocks[1:]
)
violations = verify_td(damaged)
print(f"after deleting one block, {len(violations)} pair coverages break:")
for v in violations:
    print("  ", v)
