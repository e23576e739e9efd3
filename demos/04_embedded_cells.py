"""Balanced blow-ups whose copies sit exactly on a fixed cell partition.

Scaling every class of the pattern by the same factor p and cutting
part i into p consecutive cells of size a_i yields a decomposition into
p^2 induced copies whose classes are cells, never fragments.  That
alignment is what lets a clique decomposition transport through a
blow-up later on.
"""

from induced_decomp.blowup import PatternSignature
from induced_decomp.embedded import embedded_decompose, star_parameters, verify_embedded

pat = PatternSignature((1, 2))

for p in (2, 3):
    ed = embedded_decompose(pat, p)
    print(f"p = {p}: host parts {ed.base.host.parts}")
    for i, cells in enumerate(ed.cells):
        print(f"  part {i + 1} cells: {cells}")
    print(f"  {len(ed.base.copies)} copies; each class below is one of the cells:")
    for copy in ed.base.copies:
        idx = tuple(cells.index(c) + 1 for cells, c in zip(ed.cells, copy.classes))
        print(f"    cells {idx} -> {copy.classes}")
    print("  verification:", verify_embedded(ed) or "clean")
    print()

print("=" * 64)
print("The smallest usable balance factor per pattern")
print("=" * 64)
for parts in ((1, 1), (1, 2), (2, 2), (2, 3), (2, 3, 6)):
    p = star_parameters(PatternSignature(parts))
    print(f"  {parts}: p* = {p}, scaled pattern {tuple(p * a for a in parts)}")
