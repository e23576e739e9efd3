"""Frozen sha256 digests of CLI artifacts.

Refactors and speed-ups must leave every artifact byte-identical.  Each
case runs one command with --out and compares the file's digest with the
value recorded before the change.  A change that alters any artifact
must update the digest here and say in CHANGES.md which artifacts
changed and why.  The cases cover mols at prime, prime-power and
composite orders (up to the 2.4 MB mols --order 144 --count 8), td (up
to TD(3, 128), with TD(6, 45) and TD(5, 63) at composite orders), blowup
(up to the 3,600 copies of --pattern 3,4,5) and dense in both formats, a vacuous dense certificate (n' = 1, no
copies; its edge list is empty) and cex at small n.  Embedded
decompositions have no command of their own, so their JSON is digested
as the CLI would write it, up to the sizes the benchmark runs (p = 128);
so are exact covers of K_n, which also pin the search's node count and
its failure messages.  cex values are pinned with the digest of their
witness's edge list.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from induced_decomp.blowup import PatternSignature
from induced_decomp.cli import main
from induced_decomp.embedded import embedded_decompose
from induced_decomp.oracle import (
    BudgetExceeded,
    NoDecomposition,
    SearchBudget,
    cex_exact,
    complete_graph,
    edge_list_text,
    exact_cover_decompose,
)

ARTIFACT_DIGESTS = [
    (("mols", "--order", "7", "--count", "6"),
     "f3509b64154a48ee6b8883a0c81dd982ee0adb88cf88aeb877302d558b74f2dd"),
    (("mols", "--order", "9", "--count", "8"),
     "d3d13dcf91691ddeba04a366e68d6719d8189f962fc34c4eb1d387f592179236"),
    (("mols", "--order", "12", "--count", "2"),
     "97ce064e841d816d99ea6545b099f81fb4f96a83d73f6e7a56b39b187d5b813f"),
    (("mols", "--order", "32", "--count", "31"),
     "1b5d3e4e07b989525443ea828a885b555e2405c0b8182093097b903ad8c6c8bc"),
    (("td", "--k", "4", "--n", "11"),
     "db457522b7671a0175d2951122041fc0444457bb1994db06d5fb0d6bb475b96b"),
    (("td", "--k", "5", "--n", "8"),
     "b9fac59d9449ccdf4bad27231884c4a677388804cb81ac250d5a35896dc0b790"),
    (("td", "--k", "3", "--n", "10"),
     "610dca474cd0941575937288007eb0c3e4707a293ddc76bfd7dec50de68658ef"),
    (("td", "--k", "6", "--n", "27"),
     "d1de2c5ff11d1014ffd499314f1e6eb5fe2906d41341d6eef5ceac6bcb6b8510"),
    (("blowup", "--pattern", "1,2"),
     "90406795f1f725a890a3137a2646dd871e0da5c27d08699eddfc5b198b372c13"),
    (("blowup", "--pattern", "2,3", "--format", "edgelist"),
     "96c7c75814562593b8f59bb21d0920a4a355bfe1bbeceb254acd47eb98990c94"),
    (("blowup", "--pattern", "1,1,2"),
     "054e5118c33b68b8e65716f633897107901cc208c3e51a63dd856ca7bbf3d292"),
    (("blowup", "--pattern", "1,1,2", "--format", "edgelist"),
     "d8a8248178ea6390535671832d20b47e7ba3b3c9bd1151d1e2765bd7292058fd"),
    (("dense", "--pattern", "1,2", "--n", "30"),
     "4ec9c6461284f559ba7ec79fe0c5acec8cd276f8b44eb9e95b50765743225e06"),
    (("dense", "--pattern", "1,2", "--n", "30", "--format", "edgelist"),
     "d1592ea4757c57d04e59016a4f1719e986dd7a3e533c66d9991823798be71e0b"),
    (("dense", "--pattern", "2,2", "--n", "37"),
     "e0654d1063ed4ad5468b76c6a0d341e7584db63435c7c040fe38615783eaaabe"),
    (("dense", "--pattern", "1,1,1", "--n", "20"),
     "e4bd504e27eb96344b9a08e6ba9c8c6e26d25ef19948309469d7ed0f6778c510"),
    (("dense", "--pattern", "1,1", "--n", "61", "--format", "edgelist"),
     "a9a2c2c7186466ebeb7562c7809784807e31203577db845e0676b0f716f366d2"),
    (("dense", "--pattern", "1,2", "--n", "9", "--budget-nodes", "1"),
     "e29f35d1986f42c526d98869cd5b716a58018d1d135609c498089e5617ab803c"),
    (("dense", "--pattern", "1,2", "--n", "9", "--budget-nodes", "1", "--format", "edgelist"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("mols", "--order", "144", "--count", "8"),
     "cf9bab160d9ebe93134425519da5ad05333496e38f07fddb882fad3ca433d291"),
    (("td", "--k", "3", "--n", "128"),
     "fe7fcd10dc399d865412a294e42c38911f81582302485535ebdb2f74689267fe"),
    (("blowup", "--pattern", "2,3,5"),
     "86395cbe84ab61b5e3828fa4044ad84d433ab1cd2af12afa389d44f9420d1619"),
    (("cex", "--pattern", "1,2", "--n", "5"),
     "d279f08670dc97ebe72f6bad716ab0752416ddf24c95994e862f11099446dbdb"),
    (("cex", "--pattern", "1,1,1", "--n", "6"),
     "8c0dad52fa890efe62179f54ff28d4c5e3333f260423e6a7114d44687337672f"),
    (("td", "--k", "6", "--n", "45"),
     "8e9bba20894b1df6f8525c9ba42da6cf2fab4fe631e8e0f5558ad68e134dad96"),
    (("td", "--k", "5", "--n", "63"),
     "846ac9fa32fd57fba821d6457912057ead5b28749dc4e18dd5c54421ddf4566f"),
    (("blowup", "--pattern", "3,4,5"),
     "41ee709a2ca2ba2ac7465bfcc2b3106c9324a0b80568f2367254adb4f14291e5"),
    (("blowup", "--pattern", "5,7"),
     "27ed06e8291acc6b1022cbc29dbbe2e692568d68c8d83d107ed5da83e164b9d7"),
]


@pytest.mark.parametrize(
    "argv,digest", ARTIFACT_DIGESTS, ids=[" ".join(argv) for argv, _ in ARTIFACT_DIGESTS]
)
def test_artifact_digest_frozen(tmp_path, argv, digest):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if "edgelist" not in argv:
        # a JSON artifact is exactly what json.dumps writes for what it holds
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


EMBEDDED_DIGESTS = [
    ((1, 2), 2, "33c4bc70a9005c9591f4a99011a53aee214de9b322b7fa3e605e8db571171d5c"),
    ((1, 2), 3, "8002b9cf9da299d02c8389030f7efe5dd616aee94e04378879efbc9eccd1c09b"),
    ((2, 3), 4, "1c3c9d69431b9e5fe2893457d5e52f5b124754a59a1f321bde80d301d61a71a4"),
    ((1, 1, 1), 5, "851f6b26d00ae2cf84f70feb4e48fb67544cbc02454f26d961746d566a164458"),
    ((2, 2, 2), 8, "37625d9aaaea34dec8005b1ffbd889f9c38bdde2b8763c221581c93aa471134e"),
    ((1, 2), 128, "a1544271f12bda55f9465a61143657d3f73e79990243609e54fc7a1162522b8c"),
    ((1, 1, 1), 125, "d43109c40fa6390ed1d533aad3cbbc0b45e9480dfeaec569642ea4711ad7084e"),
    ((2, 3), 49, "8796c6d27bfa53fa675a947859839324b68ebacd62ce1afd5a18ad02e36c8f99"),
]


@pytest.mark.parametrize("parts,p,digest", EMBEDDED_DIGESTS)
def test_embedded_digest_frozen(parts, p, digest):
    data = embedded_decompose(PatternSignature(parts), p).to_json_dict()
    payload = json.dumps(data, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


# exact_cover_decompose(complete_graph(n), pattern, induced=False): the
# digest of the decomposition's JSON and the fewest search nodes it needs.
# One node fewer must run out of budget, which pins node counting.
EXACT_COVER_DIGESTS = [
    ((1, 1, 1), 13, 1289, "866b3e72356c61f621c989dfeebb5a5a3a6b90bbd417be42a8ae4d7f9065e857"),
    ((1, 1, 2), 10, 1995, "9bba3bff3c4ef70400157779a90ba6cca09acf5df47ef0900f2d09341e9d810d"),
    ((1, 3), 13, 29, "6487556aa0ab5a40722a8d65c0369993f1946e138d8caf455dab36f39b1aea05"),
    ((2, 2), 9, 9, "6bed1dba0c16a8572f1f7667417bbf469fbc44e870256a0bbcfa108d50df1425"),
    ((1, 1, 1, 1), 13, 13, "d75b84bca5081b5db32f33137291e43dfc817e5ec587251fa74f089049af78ea"),
]


@pytest.mark.parametrize("parts,n,nodes,digest", EXACT_COVER_DIGESTS)
def test_exact_cover_digest_frozen(parts, n, nodes, digest):
    pattern = PatternSignature(parts)
    d = exact_cover_decompose(complete_graph(n), pattern, False, SearchBudget(nodes, 3600.0))
    payload = json.dumps(d.to_json_dict(), indent=2, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest
    with pytest.raises(BudgetExceeded, match=f"^node budget {nodes - 1} exhausted$"):
        exact_cover_decompose(complete_graph(n), pattern, False, SearchBudget(nodes - 1, 3600.0))


# Proofs of none on K_n, with one root candidate per orbit: the fewest nodes
# each needs, and one node fewer out of budget.  The rows at 3654, 2604 and
# 6660 nodes, what the proofs took when every root candidate was searched,
# check that the cut search needs no more.
@pytest.mark.parametrize("parts,n,nodes,error,message", [
    ((2, 2), 8, 3654, NoDecomposition, "search space exhausted without finding a decomposition"),
    ((2, 2), 8, 100, BudgetExceeded, "node budget 100 exhausted"),
    ((1, 1, 1), 21, 100_000, BudgetExceeded, "node budget 100000 exhausted"),
    ((3, 3), 9, 2604, NoDecomposition, "search space exhausted without finding a decomposition"),
    ((3, 3), 9, 6, BudgetExceeded, "node budget 6 exhausted"),
    ((1, 1, 1, 1), 12, 6660, NoDecomposition,
     "search space exhausted without finding a decomposition"),
    ((1, 1, 1, 1), 12, 147, BudgetExceeded, "node budget 147 exhausted"),
    ((2, 3), 9, 988, BudgetExceeded, "node budget 988 exhausted"),
    ((2, 2), 8, 101, NoDecomposition, "search space exhausted without finding a decomposition"),
    ((3, 3), 9, 7, NoDecomposition, "search space exhausted without finding a decomposition"),
    ((1, 1, 1, 1), 12, 148, NoDecomposition,
     "search space exhausted without finding a decomposition"),
    ((2, 3), 9, 989, NoDecomposition, "search space exhausted without finding a decomposition"),
])
def test_exact_cover_failure_frozen(parts, n, nodes, error, message):
    with pytest.raises(error) as info:
        exact_cover_decompose(
            complete_graph(n), PatternSignature(parts), False, SearchBudget(nodes, 3600.0)
        )
    assert str(info.value) == message


# cex_exact(n, pattern): its value and the sha256 of its witness's
# edge_list_text, for every pattern the benchmark runs at n = 5 and 6 and
# for (1, 2) at n = 7.
CEX_WITNESSES = [
    ((1, 2), 5, 2, "f4e8faaf71056877f2475aca66dfce52ce0872e9fde0b080a4e18d3d21b650d3"),
    ((1, 3), 5, 4, "cf8300a0533d97e3d522809f797a18e9a1aed625b1fff8d7c51a785f6f227851"),
    ((2, 2), 5, 6, "91e8ebc5a768c2f3e2b4d86932d4447462a95194e65ff997c51baf947b2410ea"),
    ((1, 1, 1), 5, 4, "bf6c54b9c944395e053267ed104d83f9306f52d85d0d315c790f011f953a6ce7"),
    ((1, 1, 2), 5, 5, "1a355caa0a6e2161b4413e9b0361bf9211dd8d30db9209050a573724f612a6f5"),
    ((2, 3), 5, 4, "cf8300a0533d97e3d522809f797a18e9a1aed625b1fff8d7c51a785f6f227851"),
    ((1, 4), 5, 6, "1a520f90be46be33a7ba370d071508271920af64ed7560d2ffd9263f79bf8fd6"),
    ((1, 1, 1, 1), 5, 4, "6ac64eee63a49500333a1663de5ce98c0491ec0bc0bd92f0f87a129e5fd84f02"),
    ((1, 2), 6, 3, "445fe3c5929c2f168706bdb0e9929a48066142705d8cc346c14a15c854551cbc"),
    ((1, 3), 6, 6, "b1c48deacb446d30da269b50fc11ca876fc7f81f7aee0b058703551f9be6c86a"),
    ((2, 2), 6, 3, "445fe3c5929c2f168706bdb0e9929a48066142705d8cc346c14a15c854551cbc"),
    ((1, 1, 1), 6, 3, "445fe3c5929c2f168706bdb0e9929a48066142705d8cc346c14a15c854551cbc"),
    ((1, 1, 2), 6, 5, "a4a529acc3858acaef510301b7d22f2e2af0ac7c95d36eedf749194d555a50b9"),
    ((2, 3), 6, 9, "cf8300a0533d97e3d522809f797a18e9a1aed625b1fff8d7c51a785f6f227851"),
    ((1, 4), 6, 7, "2cd69efbe16b61bdf1b7dad6501bfcef5da9b28f60efb08f1f9ddf4561b508ed"),
    ((1, 1, 1, 1), 6, 9, "6ac64eee63a49500333a1663de5ce98c0491ec0bc0bd92f0f87a129e5fd84f02"),
    ((1, 2), 7, 3, "f7be5942458e2b5ca2628be15327082af5441697521e4001c7bcc95f32e60c7e"),
]


# cex_exact at n = 8, by the same rule as at n <= 7: (1, 2), (2, 2) and
# (1, 1, 1) keep all but the perfect matching (1, 8), (2, 7), (3, 6), (4, 5).
CEX_WITNESSES_N8 = [
    ((1, 2), 8, 4, "c1eb8c76e2fad6401cd9ca744051b7bacd769f196372e27cf343813a94be3015"),
    ((2, 2), 8, 4, "c1eb8c76e2fad6401cd9ca744051b7bacd769f196372e27cf343813a94be3015"),
    ((1, 1, 1), 8, 4, "c1eb8c76e2fad6401cd9ca744051b7bacd769f196372e27cf343813a94be3015"),
    ((1, 3), 8, 7, "cad14b780371f5050a70398f563da4e6ebf3930c5402e44e3ec28b8f3f183565"),
]


@pytest.mark.parametrize("parts,n,value,digest", CEX_WITNESSES + CEX_WITNESSES_N8)
def test_cex_witness_frozen(parts, n, value, digest):
    got, witness = cex_exact(n, PatternSignature(parts))
    assert got == value
    assert hashlib.sha256(edge_list_text(witness).encode()).hexdigest() == digest


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 1)])
def test_cex_witness_n8_is_the_matching_deleted_before(parts):
    # the witness n = 8 once had, up to isomorphism: K_8 less a perfect
    # matching, which is exactly an 8-vertex graph with 24 edges, each
    # vertex of degree 6
    _, witness = cex_exact(8, PatternSignature(parts))
    assert witness.edge_count == 24
    assert [witness.degree(v) for v in range(1, 9)] == [6] * 8
