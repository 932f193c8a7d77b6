"""Point counts of nilpotent flag fibres over finite fields.

Counts chains 0 = F_0 <= F_1 <= ... <= F_n = F_q^N with prescribed
dimension jumps mu, where a fixed nilpotent X of Jordan type nu maps
each F_i into F_{i-1}.  The fast route peels off F_1 inside ker X and
continues on the quotient, one step at a time, carrying {Jordan type of
the quotient: number of partial flags}; the number of choices of F_1
inducing a given quotient type depends only on how F_1 meets the socle
filtration S_j = (ker X) meet (im X^{j-1}), which gives a closed product
of q-binomials.  Which q-binomials and which power of q is the same for
every q (_transitions), so the pass (_flag_count) runs at any integer q.
The test suite checks the counts against a literal echelon-form
enumeration over F_q and against the same pass evaluated at the prime.

The pass is a sum of products of q-binomials times powers of q, so the
count is a polynomial P in q with nonnegative integer coefficients,
each at most S = P(1).  _count_polynomial reads P off two such passes,
once per (nu, nonzero jumps) behind a bounded cache: S at q = 1,
where each q-binomial is a binomial, and P(2^B) with B = S.bit_length(),
whose base-2^B digits are the coefficients; count_polynomial hands P
out for any jumps.  Each prime is then one Horner evaluation.
point_count_table prints P with its counts at a handful of primes, and
fits those counts once at P's degree (interpolate), which must give P
back.  The number of top-dimensional components of the fibre is the
leading coefficient.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .characters import DEFAULT_SIZE_GUARD, kostka
from .errors import InvariantViolation, WeylworksError
from .linalg import Scalar, _demote
from .weights import Partition, as_partition, conjugate, pad


class NonPolynomialCountError(WeylworksError):
    """Raised when prime-by-prime counts refuse to fit one polynomial."""


# The first 13 primes, and the least integer that passes the strong
# probable-prime test to all of them as bases without being prime.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Exact primality of an integer below psi_13 = 3317044064679887385961981.

    Trial division by the first 13 primes answers below 43**2; above
    that, the Miller-Rabin test to those 13 bases is exact below psi_13,
    the least composite that passes it (Sorenson and Webster, Math.
    Comp. 86, 2017).  At or above psi_13 the answer is not certain, so
    ValueError is raised instead.
    """
    if m >= _PSI_13:
        raise ValueError(f"cannot decide whether {m} is prime: the test is exact "
                         f"only below {_PSI_13}")
    if m < 2:
        return False
    for p in _BASES:
        if m % p == 0:
            return m == p
    if m < 43 * 43:
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# The primes found so far, in order; first_primes only ever grows it.
_PRIMES: list[int] = []


def first_primes(count: int) -> list[int]:
    """The first count primes, as a new list."""
    m = _PRIMES[-1] + 1 if _PRIMES else 2
    while len(_PRIMES) < count:
        if is_prime(m):
            _PRIMES.append(m)
        m += 1
    return _PRIMES[: max(count, 0)]


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """The q-binomial coefficient [a choose b] evaluated at an integer q >= 2."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise InvariantViolation("q-binomial product did not divide exactly")
    return quot


@functools.lru_cache(maxsize=4096)
def _transitions(nu: Partition, k: int) -> tuple[tuple[Partition, tuple, int], ...]:
    """Subspaces W of ker X with dim W = k, grouped by profile, free of q.

    X is nilpotent of Jordan type nu on V.  Every such W meets the socle
    filtration S_j = (ker X) meet (im X^{j-1}) (dim S_j = conjugate(nu)[j-1])
    in a profile w_j = dim(W meet S_j); the number of W with a fixed
    profile is a product of q-binomials times a power of q, and the
    Jordan type on V/W has conjugate entries d_j - w_j + w_{j+1}.
    Returns one (quotient type, ((a, b), ...), e) per profile: over F_q
    it stands for prod [a choose b]_q * q^e subspaces W (binomials equal
    to 1 are left out).  The skeleton is the same for every q; it is
    read only by _flag_count, and a bounded cache shares it between
    passes.  Profiles are extended one index j at a time from a work
    list, without recursion.
    """
    if k < 0:
        return ()
    dt = conjugate(nu)
    m = len(dt)
    if m == 0:
        return (((), (), 0),) if k == 0 else ()
    if k > dt[0]:
        return ()
    d = list(dt) + [0]
    found = []
    work = [(k, (), 0, ())]
    while work:
        w_j, binomials, power, cols = work.pop()
        j = len(cols) + 1
        if j > m:
            found.append((conjugate(as_partition(cols)), binomials, power))
            continue
        dj, dj1 = d[j - 1], d[j]
        for w_next in range(min(w_j, dj1), -1, -1):
            step = w_j - w_next
            if step > dj - dj1:
                continue
            nontrivial = 0 < step < dj - dj1
            work.append((
                w_next,
                binomials + ((dj - dj1, step),) if nontrivial else binomials,
                power + step * (dj1 - w_next),
                cols + (dj - w_j + w_next,),
            ))
    return tuple(found)


def _checked_steps(mu, n: int | None) -> tuple[int, ...]:
    steps = tuple(map(int, mu))
    if steps and min(steps) < 0:
        raise ValueError(f"dimension jumps must be nonnegative, got {steps}")
    if n is not None:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        if len(steps) > n:
            raise ValueError(f"mu has {len(steps)} parts, more than n={n}")
        steps = pad(steps, n)
    return steps


def _flag_count(nu: Partition, steps: tuple[int, ...], q: int) -> int | None:
    """Chains over the nonzero jumps steps at an integer q >= 1, or None
    when no chain closes up.

    Carries {Jordan type of V/F_i: number of partial flags F_1 <= ... <= F_i}
    in a dict, with one _transitions lookup per type and jump.  Each
    distinct q-binomial is evaluated once per pass, as a binomial at q = 1.
    """
    binomials: dict[tuple[int, int], int] = {}
    counts = {nu: 1}
    for k in steps:
        grown: dict[Partition, int] = {}
        for shape, count in counts.items():
            for quotient, binomial_args, power in _transitions(shape, k):
                ways = count * q**power
                for args in binomial_args:
                    value = binomials.get(args)
                    if value is None:
                        value = binomials[args] = (
                            math.comb(*args) if q == 1 else gaussian_binomial(*args, q)
                        )
                    ways *= value
                grown[quotient] = grown.get(quotient, 0) + ways
        counts = grown
    return counts.get(())


@functools.lru_cache(maxsize=256)
def _count_polynomial(nu: Partition, steps: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending coefficients of the count over the nonzero jumps steps.

    Every coefficient is a nonnegative integer, so each is at most the
    count S that _flag_count gives at q = 1 and below 2^B with
    B = S.bit_length(): the coefficients are the base-2^B digits of its
    count at q = 2^B, and their sum must come back as S.  A negative
    coefficient or a wrong evaluation makes a carry or a borrow, which
    moves the digit sum by a nonzero multiple of 2^B - 1, and raises
    InvariantViolation.  The empty tuple is the zero count.
    """
    total = _flag_count(nu, steps, 1)
    if total is None:
        return ()
    width = total.bit_length()
    base = 1 << width
    value = _flag_count(nu, steps, base)
    coeffs = []
    while value > 0:
        coeffs.append(value & (base - 1))
        value >>= width
    if sum(coeffs) != total:
        raise InvariantViolation(
            f"count polynomial for nu={nu}, jumps={steps} has base-2^{width} "
            f"digits {coeffs} that do not sum to its count {total} at q=1"
        )
    return tuple(coeffs)


def count_polynomial(nu, mu, n: int | None = None) -> tuple[int, ...]:
    """The chain count of count_fiber_points as a polynomial in q, in
    ascending coefficients.

    When n is given, mu is padded with zero jumps to n steps.  The
    polynomial is (0,) when the jumps do not sum to |nu| or no chain
    closes up.  Otherwise it is _count_polynomial's, read off two passes
    and checked by its digit sum once per (nu, nonzero jumps) behind a
    bounded cache (a zero jump is the identity and adds no layer).
    """
    nu = as_partition(nu)
    steps = _checked_steps(mu, n)
    if sum(steps) != sum(nu):
        return (0,)
    return _count_polynomial(nu, tuple(k for k in steps if k)) or (0,)


def count_fiber_points(q: int, nu, mu, n: int | None = None) -> int:
    """Number of chains 0 = F_0 <= ... <= F_n = F_q^N over F_q.

    The chains have dim(F_i / F_{i-1}) = mu_i and X F_i <= F_{i-1} for a
    nilpotent X of Jordan type nu with N = |nu|.  When n is given, mu is
    padded with zero jumps to n steps.  If the jumps do not sum to |nu|
    no chain can close up, and the count is 0.  The count at q is the
    Horner value of count_polynomial.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    acc = 0
    for c in reversed(count_polynomial(nu, mu, n)):
        acc = acc * q + c
    return acc


def _poly_eval(coeffs, x) -> Scalar:
    """Exact value at the integer x of ascending coefficients: a plain int
    Horner when every coefficient is an int, otherwise Horner on integers
    over the common denominator."""
    acc = 0
    if all(c.__class__ is int for c in coeffs):
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    den = math.lcm(*(c.denominator for c in coeffs))
    for c in reversed(coeffs):
        acc = acc * x + c.numerator * (den // c.denominator)
    return Fraction(acc, den)


def _add_node(nodes: list[int], row: list[Scalar], x: int, y: Scalar) -> Scalar:
    """Extend a Newton divided-difference table by the point (x, y).

    row[j] is the divided difference over the last j + 1 of nodes; on
    return nodes ends with x, row covers it, and the difference over
    every node -- the Newton coefficient of the new point -- is returned.
    Divisions are exact int divmods when they divide evenly (always, for
    an integer polynomial at integer nodes) and Fractions otherwise,
    demoted to int when integral.
    """
    diff = y
    for j, (old, node) in enumerate(zip(row, reversed(nodes))):
        row[j] = diff
        num, den = diff - old, x - node
        if num.__class__ is int:
            quot, rem = divmod(num, den)
            diff = Fraction(num, den) if rem else quot
        else:
            diff = _demote(num / den)
    row.append(diff)
    nodes.append(x)
    return diff


def interpolate(points, degree_bound: int) -> tuple[Scalar, ...]:
    """Exact polynomial through the points, as ascending coefficients.

    Fits the unique polynomial of degree <= degree_bound through the
    first degree_bound + 1 points (after sorting by abscissa), by Newton
    divided differences (_add_node) expanded to monomial coefficients,
    and then demands that every remaining point lie on it exactly,
    raising NonPolynomialCountError otherwise.  At least degree_bound + 2
    points are required so that there is always something left to check.
    A coefficient is an int unless it is fractional.  Trailing zero
    coefficients are stripped, so the constant zero polynomial comes
    back as (0,).
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be nonnegative")
    pairs = points.items() if isinstance(points, dict) else points
    pts = sorted((int(x), int(y)) for x, y in pairs)
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("duplicate abscissae")
    if len(pts) < degree_bound + 2:
        raise ValueError(
            f"need at least {degree_bound + 2} points for degree {degree_bound}, "
            f"got {len(pts)}"
        )
    xs: list[int] = []
    row: list[Scalar] = []
    diffs = [_add_node(xs, row, x, y) for x, y in pts[: degree_bound + 1]]
    # Newton form to ascending monomial coefficients, by Horner's rule in
    # the nodes: p <- p * (x - xs[k]) + diffs[k].
    coeffs = [diffs[-1]]
    for k in range(len(xs) - 2, -1, -1):
        grown = [0] + coeffs
        for t, c in enumerate(coeffs):
            grown[t] -= xs[k] * c
        grown[0] += diffs[k]
        coeffs = grown
    coeffs = [_demote(c) for c in coeffs]
    for x, y in pts:
        predicted = _poly_eval(coeffs, x)
        if predicted != y:
            raise NonPolynomialCountError(
                f"count at q={x} is {y} but the degree-{degree_bound} fit "
                f"predicts {predicted}"
            )
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class PointCountTable(
    namedtuple("PointCountTable", "nu mu evaluations coefficients")
):
    """Prime evaluations of a chain count plus its count polynomial.

    coefficients are ascending powers of q; evaluations hold the
    (prime, count) pairs, primes ascending, that the fit checked.
    """

    __slots__ = ()

    @property
    def lam(self) -> Partition:
        """Conjugate of the Jordan type; labels the matching irreducible."""
        return conjugate(self.nu)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]


def point_count_table(nu, mu, n: int | None = None, *, primes=None) -> PointCountTable:
    """Count chains at several primes, with their exact count polynomial.

    The polynomial is count_polynomial's; its degree d is at most cap,
    the sum of products of distinct jumps (0 when the jumps do not add
    up to |nu|).  The counts are taken at the sorted explicit primes, or
    by default at the first max(cap + 1, d + 3) primes.  An explicit list
    is refused with NonPolynomialCountError when d > min(cap, len - 2),
    raised from the failed fit at that bound: its counts cannot pin the
    polynomial down.  Otherwise interpolate fits every count once at
    degree d, and a fit other than the polynomial raises
    InvariantViolation.
    """
    nu = as_partition(nu)
    steps = _checked_steps(mu, n)
    if primes is not None:
        supply = sorted(int(p) for p in primes)
        if len(set(supply)) != len(supply) or any(not is_prime(p) for p in supply):
            raise ValueError("primes must be distinct primes")
        if len(supply) < 2:
            raise ValueError("need at least two primes")
    coeffs = count_polynomial(nu, steps)
    total = sum(steps)
    cap = (total * total - sum(x * x for x in steps)) // 2 if total == sum(nu) else 0
    degree = len(coeffs) - 1
    if primes is None:
        supply = first_primes(max(cap + 1, degree + 3))
    values = {p: count_fiber_points(p, nu, steps) for p in supply}
    limit = min(cap, len(supply) - 2)
    if degree > limit:
        counts = "counts" if primes is None else "supplied counts"
        try:
            interpolate(values, limit)
        except NonPolynomialCountError as err:
            raise NonPolynomialCountError(
                f"no polynomial of degree <= {limit} fits the {counts} for nu={nu}, "
                f"mu={steps}"
            ) from err
        raise InvariantViolation(
            f"the counts for nu={nu}, mu={steps} fit degree {limit}, below the "
            f"degree {degree} of their count polynomial"
        )
    fit = interpolate(values, degree)
    if fit != coeffs:
        raise InvariantViolation(
            f"the counts for nu={nu}, mu={steps} fit {fit}, not their count "
            f"polynomial {coeffs}"
        )
    return PointCountTable(
        nu=nu, mu=steps, evaluations=tuple(values.items()), coefficients=coeffs
    )


def component_count(nu, mu, n: int | None = None, *, primes=None,
                    size_guard: int | None = DEFAULT_SIZE_GUARD) -> int:
    """Number of top-dimensional components of the chain variety.

    Read off as the leading coefficient of the point-count polynomial
    and cross-checked against kostka(conjugate(nu), mu), which counts
    the same components combinatorially; a mismatch raises
    InvariantViolation.
    """
    table = point_count_table(nu, mu, n, primes=primes)
    lead = table.leading_coefficient
    expected = kostka(conjugate(table.nu), table.mu, size_guard=size_guard)
    if lead != expected:
        raise InvariantViolation(
            f"leading coefficient {lead} disagrees with the Kostka count "
            f"{expected} for nu={table.nu}, mu={table.mu}"
        )
    return lead
