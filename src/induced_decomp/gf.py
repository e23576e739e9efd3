"""Arithmetic in the finite field GF(p^e).

Field elements are residues of GF(p)[X] modulo a fixed monic irreducible
polynomial of degree e.  An element is encoded as an integer in
``range(q)``, q = p**e, whose base-p digits are the polynomial
coefficients: digit i holds the coefficient of X**i.  Zero is 0, the
multiplicative identity is 1, and for e = 1 the encoding coincides with
the ordinary integers-mod-p representation.

The modulus is not configurable.  It is the monic degree-e polynomial
whose non-leading coefficient vector, read as a base-p integer with the
most significant digit first, is smallest among all irreducible
candidates.  Fixing the modulus this way makes every object derived
from the field (multiplication tables, Latin squares, block designs)
reproducible byte for byte across runs and machines.

The modulus is found by exhaustive search, and both operations are kept
as dense q-by-q tables.  The multiplication table is built in one pass
over whole arrays: the base-p digit vectors of all q**2 pairs
are multiplied as polynomials into a q-by-q-by-(2e-1) array of
coefficients, which one matrix product against the digit vectors of
X**k mod the modulus (k = 0..2e-2) reduces to degree below e; the
result is taken mod p and encoded.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np


class NotPrimePower(ValueError):
    """Raised when an order is required to be p**e for a prime p."""


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Return the prime factorization of n as ((p1, e1), ...), primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_power_decomposition(n: int) -> tuple[int, int]:
    """Write n as p**e for prime p, or raise NotPrimePower."""
    if n < 2:
        raise NotPrimePower(f"{n} is not a prime power")
    factors = factorize(n)
    if len(factors) != 1:
        raise NotPrimePower(f"{n} is not a prime power")
    return factors[0]


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


# -- polynomial helpers over GF(p) -------------------------------------------
#
# A polynomial is a list of coefficients in ascending degree order with no
# trailing zeros (the zero polynomial is the empty list).


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo m (m monic), coefficients mod p."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * mi) % p
        _trim(r)
    return r


def _monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    """All monic polynomials of the given degree, smallest encoding first."""
    for code in range(p**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        yield coeffs + [1]


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    degree = len(f) - 1
    if degree <= 0:
        return False
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(f, g, p):
                return False
    return True


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible polynomial of degree e over GF(p)."""
    for f in _monic_polys(e, p):
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


class GaloisField:
    """GF(q) with integer-encoded elements and dense operation tables.

    Attributes:
        q: field order p**e.
        p: characteristic.
        e: extension degree.
        modulus: coefficients of the reduction polynomial, ascending degree.
    """

    def __init__(self, q: int):
        p, e = prime_power_decomposition(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _find_modulus(p, e)
        self._add = self._build_add_table()
        self._mul = self._build_mul_table()
        self._add.setflags(write=False)
        self._mul.setflags(write=False)

    def _build_add_table(self) -> np.ndarray:
        digits = self._digit_matrix()
        sums = (digits[:, None, :] + digits[None, :, :]) % self.p
        weights = self.p ** np.arange(self.e)
        return (sums * weights).sum(axis=2).astype(np.int64)

    def _build_mul_table(self) -> np.ndarray:
        p, e = self.p, self.e
        digits = self._digit_matrix()
        # coefficients of the unreduced product of every pair, degrees 0..2e-2
        product = np.zeros((self.q, self.q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            product[:, :, i : i + e] += digits[:, None, i, None] * digits[None, :, :]
        # row k holds the digits of X**k mod modulus
        reduced_powers = np.zeros((2 * e - 1, e), dtype=np.int64)
        for k in range(2 * e - 1):
            rem = _poly_mod([0] * k + [1], list(self.modulus), p)
            reduced_powers[k, : len(rem)] = rem
        return ((product @ reduced_powers) % p) @ (p ** np.arange(e))

    def _digit_matrix(self) -> np.ndarray:
        values = np.arange(self.q)
        return np.stack([(values // self.p**i) % self.p for i in range(self.e)], axis=1)

    @property
    def add_table(self) -> np.ndarray:
        """Read-only q-by-q table with entry [a, b] = a + b."""
        return self._add

    @property
    def mul_table(self) -> np.ndarray:
        """Read-only q-by-q table with entry [a, b] = a * b."""
        return self._mul

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def elements(self) -> range:
        """All elements in their fixed order (ascending integer encoding)."""
        return range(self.q)

    def __repr__(self) -> str:
        return f"GaloisField({self.q})"


@functools.lru_cache(maxsize=16)
def galois_field(q: int) -> GaloisField:
    """Shared field instance for order q; the 16 last used are cached."""
    return GaloisField(q)
