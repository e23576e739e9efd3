"""Dense decomposable hosts: almost-complete graphs on any large n.

For each n the pipeline picks a clique order n', decomposes K_{n'} by
brute force, blows each vertex up to an independent p-set, transports a
cell-aligned decomposition through every copy, and pads with t isolated
vertices.  The resulting graph misses only O(n) of its C(n, 2) possible
edges, every one accounted for in the certificate.
"""

import numpy as np

from induced_decomp.blowup import PatternSignature
from induced_decomp.dense import assemble

pat = PatternSignature((1, 2))

rows = []
for n in range(9, 26):
    cert = assemble(pat, n)
    rows.append((
        n,
        cert.params.n_prime,
        cert.params.t,
        len(cert.decomposition.copies),
        cert.non_edge_count,
        n * (n - 1) // 2,
        cert.bound_rhs,
    ))

print("pattern:", pat.parts)
print(f"{'n':>4} {'clique':>7} {'spare':>6} {'copies':>7} {'missing':>8} {'pairs':>6} {'bound':>8}")
for n, npr, t, copies, miss, pairs, bound in rows:
    print(f"{n:>4} {npr:>7} {t:>6} {copies:>7} {miss:>8} {pairs:>6} {bound:>8.0f}")

table = np.array(rows)
dens = 1 - table[:, 4] / table[:, 5]
print()
print(f"edge density ranges from {dens.min():.3f} to {dens.max():.3f};")
print("missing edges grow linearly while possible pairs grow quadratically.")

print()
cert = assemble(pat, 9)
print("the n = 9 host in full; its non-edges are")
print(" ", tuple(map(tuple, cert.to_json_dict()["non_edges"])))
print("and its first three copies are")
for copy in cert.decomposition.copies[:3]:
    print("  ", copy.classes)
