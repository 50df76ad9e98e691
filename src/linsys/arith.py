"""Small number-theory helpers used across modules."""
from __future__ import annotations

# Witnesses proving deterministic Miller-Rabin correct for all n < 3.3e24,
# far past the 2^62 guard used anywhere in this package.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-scale integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 41 * 41:  # no prime factor up to 37, so none up to sqrt(n)
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power_exceeds(base: int, exp: int, limit: int) -> bool:
    """Whether base**exp > limit for integers base, exp, limit >= 0.  The
    power is built only when exp < limit.bit_length(); past that, base >= 2
    gives base**exp >= 2**exp > limit, however large exp is."""
    if base >= 2 and exp >= limit.bit_length():
        return True
    return base**exp > limit
