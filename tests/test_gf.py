"""Field arithmetic checks, exhaustive over the small orders used elsewhere."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from induced_decomp.gf import (
    GaloisField,
    NotPrimePower,
    _poly_mod,
    _poly_mul,
    _trim,
    factorize,
    galois_field,
    is_prime_power,
    prime_power_decomposition,
)

ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def test_factorize():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(2) == ((2, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


@pytest.mark.parametrize("n,expected", [(2, True), (4, True), (6, False), (1, False),
                                        (27, True), (100, False), (49, True)])
def test_is_prime_power(n, expected):
    assert is_prime_power(n) is expected


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    with pytest.raises(NotPrimePower):
        prime_power_decomposition(12)


@pytest.mark.parametrize("q", [1, 6, 10, 12, 15])
def test_bad_orders_rejected(q):
    with pytest.raises(NotPrimePower):
        GaloisField(q)


@pytest.mark.parametrize("q,modulus", [
    (4, (1, 1, 1)),        # X^2 + X + 1
    (8, (1, 1, 0, 1)),     # X^3 + X + 1
    (9, (1, 0, 1)),        # X^2 + 1
])
def test_modulus_is_first_irreducible(q, modulus):
    """The reducing polynomial is pinned so encodings never drift."""
    assert galois_field(q).modulus == modulus


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms(q):
    f = galois_field(q)
    els = list(f.elements())
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
    # commutativity via table symmetry
    assert (f.add_table == f.add_table.T).all()
    assert (f.mul_table == f.mul_table.T).all()
    # associativity and distributivity, exhaustive
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", ORDERS)
def test_inverses_exist(q):
    f = galois_field(q)
    for a in f.elements():
        assert 0 in f.add_table[a]
        if a != 0:
            assert 1 in f.mul_table[a]


@pytest.mark.parametrize("q", ORDERS)
def test_tables_are_latin(q):
    """Each row of the add table and each nonzero row of the mul table
    is a permutation, which is what the Latin-square construction leans on."""
    f = galois_field(q)
    full = np.arange(q)
    for a in range(q):
        assert (np.sort(f.add_table[a]) == full).all()
        if a != 0:
            assert (np.sort(f.mul_table[a]) == full).all()


def test_prime_field_is_plain_modular_arithmetic():
    f = galois_field(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


# a negative element used to wrap around to the table's far end (add(-1, 0)
# gave 6, mul(-2, 3) gave 1), and one past the field raised IndexError
@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (-2, 3), (7, 0), (0, 7)])
def test_field_operations_reject_non_elements(op, a, b):
    with pytest.raises(ValueError, match=rf"^\({a}, {b}\) are not both elements 0\.\.6 of GF\(7\)$"):
        getattr(galois_field(7), op)(a, b)


def test_gf4_multiplication_table():
    # with modulus X^2 + X + 1 and encoding a0 + 2*a1: 2 = X, 3 = X + 1
    f = galois_field(4)
    assert f.mul(2, 2) == 3  # X^2 = X + 1
    assert f.mul(2, 3) == 1  # X(X+1) = X^2 + X = 1
    assert f.mul(3, 3) == 2


def test_factory_caches():
    assert galois_field(8) is galois_field(8)


def test_factory_cache_is_bounded():
    # the 16 fields last used stay cached; the least recently used goes first
    galois_field.cache_clear()
    orders = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]
    fields = [galois_field(q) for q in orders]
    info = galois_field.cache_info()
    assert info.maxsize == 16 and info.currsize == 16 and info.misses == 17
    assert galois_field(31) is fields[-1] and galois_field(3) is fields[1]
    assert galois_field(2) is not fields[0]
    galois_field.cache_clear()


def test_tables_frozen():
    f = galois_field(4)
    with pytest.raises(ValueError):
        f.add_table[0, 0] = 5


# sha256 of the int64 (mul_table, add_table) bytes, recorded from the
# pure-Python table builder; any change to an encoding or to the modulus
# choice shows up here.
TABLE_DIGESTS = {
    32: ("9db49a981e72f1d950c2f4f07c8e5d12eea08444efbe3c13db3e8bcb3ebc05f8",
         "5f7df29d5dcb6897b8b0815a90cdbb8a57ec6f4400c1b065c85cc434ec3f4766"),
    49: ("c3ebe1de5a2aecf044d49b418f9ff3ad39e11d94097a66d02496f751ddc5f5da",
         "73678cf071cf7baa368761afbf0570d3245563f1094f871f24f18f8623a8392d"),
    64: ("9acd8acc8ab7fd85c547e23b9434dd56ad81d7f96083dffa48ae285f9825df49",
         "779fcd7c371f9badc62ec28c6b7e8058ef9af8b70316813a8982a39b9da0522c"),
    81: ("f8000f30008553d902f651b4941ebb1591f25ea2784d5644cda135a6d2ca5c34",
         "03ed3956e07257e3eac0db297fe8c76993997dbb5ca849807ffe888675d49dba"),
    121: ("98efd4110564fec6910ced1e1a1932fe96a40e0e220c68191a32dccdee3b228d",
          "2c5d9b9d8f00207187aad1f193c9f381996c1caf1185f4b4778c952d73b7acca"),
    125: ("029cc52717d4f67d7052f78d73a32fed86d58ad2ad11ab4a51411175bd84bdf8",
          "de248ad0a4cc2193808274e692c2e62c211c038ebd8143df7d26c58da11dcad4"),
    128: ("444486fa0d49191478d3be48ac8e9cf12842e556848216def6b87a8a7bcd92ba",
          "88b1e5f01136626185defa744567b2eeb730c556abe58b22a10931ea22d8a843"),
    243: ("bef9be654e834c121d4033996d020e924a1733f0918f99951b8be75f5bc3946b",
          "f51377565878b2dcb203916bc82a412f4d02345cd98568324d4a355d8462fcc3"),
    256: ("23fd2bfb28904303c8ad64cec3dff35b2301ab5872d7212fc4aa205f0adac99c",
          "8789a1484021cb8c8d76e4ebd76cfc782111d57cd7969c1fe59e0b58c9f46e6a"),
    # primes, recorded from the integers-mod-p tables e = 1 once had of its own
    101: ("cdcda5a134fb2410ce5420a4fdbd1318193e5dc0806da48f7bba16ef24f1e120",
          "fed6b255904f71138791261ac39f4cc94d8701981a6e6aa6ea5ba06d54d24e91"),
    127: ("f77ddbe9ef5dfa0221bbc15dafa46b88975ffe8c28375cee11adef1d2404baa3",
          "b67ef69e55c3f2d1444c0bd9b31f16dae347ec358598ebfd86d89dda62446fa0"),
    251: ("120c75f6d98df54201e9b8df756c0702771e978032e23706aea30e7242151319",
          "717311783145275a92b05896a02a7f9d2b3c297474bca03ae1687b7c0b583c8c"),
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_large_tables_frozen(q):
    f = galois_field(q)
    assert f.mul_table.dtype == np.int64 and f.add_table.dtype == np.int64
    mul_digest, add_digest = TABLE_DIGESTS[q]
    assert hashlib.sha256(f.mul_table.tobytes()).hexdigest() == mul_digest
    assert hashlib.sha256(f.add_table.tobytes()).hexdigest() == add_digest


@pytest.mark.parametrize("q", [9, 25, 32, 49, 64, 125])
def test_mul_table_matches_polynomial_reference(q):
    """Every product equals the schoolbook product reduced by the modulus,
    and every sum the coefficient-wise sum mod p.  X is not primitive for
    9, 25, 49 and 125, so their tables come from another primitive element."""
    f = galois_field(q)
    p, e, modulus = f.p, f.e, list(f.modulus)

    def coeffs(v):
        return _trim([(v // p**i) % p for i in range(e)])

    def encode(c):
        return sum(ci * p**i for i, ci in enumerate(c))

    for a in range(q):
        for b in range(q):
            expected = encode(_poly_mod(_poly_mul(coeffs(a), coeffs(b), p), modulus, p))
            assert f.mul(a, b) == expected, (a, b)
            assert f.add(a, b) == sum((a // p**i + b // p**i) % p * p**i for i in range(e)), (a, b)
