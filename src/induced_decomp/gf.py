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
as dense q-by-q tables.  For e > 1 multiplication is read off one
log/antilog pair: the powers of the first primitive element g, found by
walking multiplication by g (a GF(p)-linear map, built on whole arrays
from multiplication by X) from 1, give a * b = g**(log a + log b).  Any
primitive element gives the same tables.  For e = 1 it is the product
mod p.  Addition is XOR of the encodings for p = 2 and digit-wise
addition mod p otherwise.
"""

from __future__ import annotations

import functools
import itertools
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
        if self.p == 2:
            values = np.arange(self.q)
            return values[:, None] ^ values
        return sum((d[:, None] + d) % self.p * self.p**i for i, d in enumerate(self._digit_matrix().T))

    def _build_mul_table(self) -> np.ndarray:
        """a * b = g**(log a + log b) for a, b != 0, g the first primitive element."""
        p, e, q = self.p, self.e, self.q
        if e == 1:  # the integers mod p
            return np.multiply.outer(np.arange(q), np.arange(q)) % p
        # digits of X**i * a in row a, i = 0..e-1: one place up, less the top
        # digit times the modulus (monic, so X**e is minus its lower terms)
        shifted = [self._digit_matrix()]
        for _ in range(e - 1):
            d = shifted[-1]
            up = np.column_stack((0 * d[:, 0], d[:, :-1]))
            shifted.append((up - d[:, -1:] * self.modulus[:-1]) % p)
        for g in range(p, q):  # from X: no constant is primitive; times[a] = g * a
            times = (sum(c * d for c, d in zip(shifted[0][g], shifted)) % p @ p ** np.arange(e)).tolist()
            powers = list(itertools.accumulate(range(q - 2), lambda a, _: times[a], initial=1))
            if 1 not in powers[1:]:  # g**k != 1 for 0 < k < q - 1: g is primitive
                break
        exp = np.array(powers * 2)  # g**k for k < 2(q - 1), so log sums need no mod
        log = np.argsort(exp[:q - 1])  # log a at a - 1
        table = np.zeros((q, q), np.int64)  # row and column 0: 0 * a = 0
        table[1:, 1:] = exp[log[:, None] + log]
        return table

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
        return int(self._add[self._elements(a, b)])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[self._elements(a, b)])

    def _elements(self, a: int, b: int) -> tuple[int, int]:
        if not (0 <= a < self.q and 0 <= b < self.q):
            raise ValueError(f"({a}, {b}) are not both elements 0..{self.q - 1} of GF({self.q})")
        return a, b

    def elements(self) -> range:
        """All elements in their fixed order (ascending integer encoding)."""
        return range(self.q)

    def __repr__(self) -> str:
        return f"GaloisField({self.q})"


@functools.lru_cache(maxsize=16)
def galois_field(q: int) -> GaloisField:
    """Shared field instance for order q; the 16 last used are cached."""
    return GaloisField(q)
