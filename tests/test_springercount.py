"""Point counts checked two ways.

The production counter peels one step off the flag and multiplies closed
q-binomial transition counts; the brute-force reference here,
reference_count_fiber_points, literally walks echelon forms over F_q on
its own dense elimination, dense_rref_modq, which shares no code with
the package's eliminator.  Both are compared on everything small, and
the q-binomials themselves are checked against an independent Pascal
recursion on coefficient lists.  The polynomial fit is compared with two
references: Lagrange interpolation, and the degree search that refits
every bound from scratch.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylworks import springercount
from weylworks.characters import kostka
from weylworks.cli import main
from weylworks.crossval import cross_validate
from weylworks.errors import InvariantViolation, ResourceLimitError
from weylworks.springercount import (
    NonPolynomialCountError,
    PointCountTable,
    _checked_steps,
    component_count,
    count_fiber_points,
    first_primes,
    gaussian_binomial,
    interpolate,
    is_prime,
    point_count_table,
)
from weylworks.weights import (
    as_partition,
    compositions,
    conjugate,
    dominance_leq,
    pad,
    partitions,
)


def oracle_qbinom(a, b):
    """[a choose b]_q as a low-to-high coefficient list, by the Pascal
    recursion [a b] = [a-1 b-1] + q^b [a-1 b]."""
    if b < 0 or b > a:
        return [0]
    row = {0: [1]}  # b -> coefficients, for current a
    for cur_a in range(1, a + 1):
        new = {0: [1]}
        for cur_b in range(1, cur_a + 1):
            left = row.get(cur_b - 1, [0])
            right = row.get(cur_b, [0])
            shifted = [0] * cur_b + right
            width = max(len(left), len(shifted))
            new[cur_b] = [
                (left[i] if i < len(left) else 0)
                + (shifted[i] if i < len(shifted) else 0)
                for i in range(width)
            ]
        row = new
    out = row.get(b, [0])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def eval_poly(coeffs, q):
    return sum(c * q**i for i, c in enumerate(coeffs))


def test_oracle_qbinom_sanity():
    assert oracle_qbinom(2, 1) == [1, 1]
    assert oracle_qbinom(4, 2) == [1, 1, 2, 1, 1]
    assert oracle_qbinom(3, 3) == [1]
    assert oracle_qbinom(3, 4) == [0]


def test_is_prime_and_first_primes():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]

    def by_trial_division(m):
        return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))

    assert all(is_prime(m) == by_trial_division(m) for m in range(-5, 20000))
    # a Carmichael number, strong pseudoprimes to base 2, to bases 2..7,
    # and psi_12, the least one to the first 12 prime bases
    for composite in (561, 2047, 3215031751, 318665857834031151167461):
        assert not is_prime(composite), composite
    assert is_prime(10**18 + 3)
    # psi_13, the least strong pseudoprime to the first 13 prime bases:
    # from there on the test is not exact, so it refuses
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


def test_first_primes_hands_out_fresh_lists():
    assert first_primes(0) == [] and first_primes(-3) == []
    head = first_primes(4)
    head.append(0)
    assert first_primes(4) == [2, 3, 5, 7]
    assert first_primes(30)[-1] == 113
    assert first_primes(5) == [2, 3, 5, 7, 11]


def test_gaussian_binomial_matches_pascal_oracle():
    for a in range(9):
        for b in range(a + 1):
            expected = oracle_qbinom(a, b)
            for q in (2, 3, 5):
                assert gaussian_binomial(a, b, q) == eval_poly(expected, q)


def test_gaussian_binomial_symmetry_and_errors():
    for a in range(8):
        for b in range(a + 1):
            assert gaussian_binomial(a, b, 3) == gaussian_binomial(a, a - b, 3)
    assert gaussian_binomial(5, 7, 2) == 0
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


def test_count_fiber_points_pinned():
    assert count_fiber_points(2, (2, 1), (1, 1, 1)) == 5
    assert count_fiber_points(3, (2, 1), (1, 1, 1)) == 7
    assert count_fiber_points(5, (2, 1), (1, 1, 1)) == 11


def test_count_fiber_points_argument_checks():
    with pytest.raises(ValueError):
        count_fiber_points(4, (2, 1), (1, 1, 1))  # not a prime
    with pytest.raises(ValueError):
        count_fiber_points(2, (2, 1), (2, -1, 2))
    with pytest.raises(ValueError):
        count_fiber_points(2, (2, 1), (1, 1, 1), n=2)  # mu longer than n
    assert count_fiber_points(2, (2, 1), (1, 1)) == 0  # size mismatch: no chains


def test_negative_n_is_refused_as_such():
    # not as "mu has 0 parts, more than n=-1"
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        count_fiber_points(2, (), (), -1)
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        point_count_table((), (), -1)


def test_single_point_fibers():
    for total in range(1, 6):
        for nu in partitions(total):
            lam = conjugate(nu)
            for q in (2, 3):
                assert count_fiber_points(q, nu, lam) == 1, (nu, q)


def test_zero_operator_counts_are_gaussian_multinomials():
    for total in range(1, 6):
        nu = (1,) * total
        for k in range(1, 5):
            for mu in compositions(total, k):
                for q in (2, 3, 5):
                    expected = 1
                    left = total
                    for step in mu:
                        expected *= eval_poly(oracle_qbinom(left, step), q)
                        left -= step
                    assert count_fiber_points(q, nu, mu) == expected, (mu, q)


def jordan_matrix(nu):
    """Nilpotent matrix in Jordan form with block sizes nu (0/1 entries)."""
    nu = as_partition(nu)
    size = sum(nu)
    mat = [[0] * size for _ in range(size)]
    offset = 0
    for part in nu:
        for t in range(1, part):
            mat[offset + t - 1][offset + t] = 1
        offset += part
    return mat


def dense_rref_modq(rows, q):
    """Dense Gauss-Jordan elimination over F_q; returns (rows, pivot cols),
    the nonzero rows sorted by pivot column."""
    work = [[x % q for x in r] for r in rows]
    out = []
    pivots = []
    for row in work:
        for r, p in zip(out, pivots):
            c = row[p]
            if c:
                row = [(a - c * b) % q for a, b in zip(row, r)]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        inv = pow(row[pivot], -1, q)
        row = [(inv * x) % q for x in row]
        for r in out:
            c = r[pivot]
            if c:
                r[:] = [(a - c * b) % q for a, b in zip(r, row)]
        out.append(row)
        pivots.append(pivot)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order], sorted(pivots)


def subspaces_modq(coords, size, k, q, tick):
    """All k-dimensional subspaces over F_q of the span of the unit vectors
    at coords, as reduced echelon bases of dense rows of length size."""
    dim = len(coords)
    for pivots in itertools.combinations(range(dim), k):
        free = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, dim)
            if c not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            tick()
            rows = [[0] * size for _ in pivots]
            for r, p in enumerate(pivots):
                rows[r][coords[p]] = 1
            for (r, c), v in zip(free, values):
                rows[r][coords[c]] = v
            yield rows


def reference_count_fiber_points(q, nu, mu, n=None, *, budget=10**8):
    """Count the same chains as count_fiber_points by direct enumeration.

    Walks every echelon form at every step and tests X F_i <= F_{i-1}
    generator by generator; the flag and the membership tests run on
    dense_rref_modq, an elimination of its own that shares no code with
    linalg.  Exponentially slower than the recursion, so only for small
    inputs; budget bounds the number of echelon forms generated before
    ResourceLimitError.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime for direct enumeration, got {q}")
    nu = as_partition(nu)
    steps = _checked_steps(mu, n)
    if sum(steps) != sum(nu):
        return 0
    size = sum(nu)
    estimate = 0
    level = 1
    remaining = size
    for k in steps:
        level *= gaussian_binomial(remaining, k, q)
        estimate += level
        remaining -= k
    if estimate > budget:
        raise ResourceLimitError(
            f"estimated {estimate} echelon forms exceeds the budget of {budget}"
        )
    xmat = jordan_matrix(nu)
    spent = [0]

    def tick():
        spent[0] += 1
        if spent[0] > budget:
            raise ResourceLimitError(
                f"echelon enumeration exceeded the budget of {budget} forms"
            )

    def inside(flag, vec):
        """vec lies in the span of the reduced rows flag."""
        return len(dense_rref_modq(flag + [vec], q)[0]) == len(flag)

    def extend(flag, pivots, i):
        if i == len(steps):
            return 1
        complement = [c for c in range(size) if c not in pivots]
        total = 0
        for lifted in subspaces_modq(complement, size, steps[i], q, tick):
            images = (
                [sum(x * v for x, v in zip(row, vec)) for row in xmat] for vec in lifted
            )
            if all(inside(flag, image) for image in images):
                total += extend(*dense_rref_modq(flag + lifted, q), i + 1)
        return total

    return extend([], [], 0)


def test_fast_route_agrees_with_bruteforce():
    for total in range(1, 5):
        for nu in partitions(total):
            for k in range(1, 5):
                for mu in compositions(total, k):
                    for q in (2, 3):
                        fast = count_fiber_points(q, nu, mu)
                        slow = reference_count_fiber_points(q, nu, mu)
                        assert fast == slow, (nu, mu, q)


def test_bruteforce_budget_guard():
    with pytest.raises(ResourceLimitError) as err:
        reference_count_fiber_points(3, (1, 1, 1, 1), (1, 1, 1, 1), budget=10)
    assert "estimated" in str(err.value)


def test_nonzero_count_implies_dominance():
    for total in range(1, 6):
        for nu in partitions(total):
            lam = conjugate(nu)
            for k in range(1, 5):
                for mu in compositions(total, k):
                    if count_fiber_points(2, nu, mu) > 0:
                        width = max(len(lam), len(mu))
                        assert dominance_leq(pad(mu, width), pad(lam, width)), (nu, mu)


def reference_interpolate(points, degree_bound):
    """Lagrange form of interpolate: the fit the package made before it
    switched to Newton divided differences, with the same argument checks
    and messages."""
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
    fit = pts[: degree_bound + 1]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for i, (xi, yi) in enumerate(fit):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(fit):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis
            scaled = [xj * c for c in basis] + [Fraction(0)]
            basis = [a - b for a, b in zip(shifted, scaled)]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for kk, c in enumerate(basis):
            coeffs[kk] += scale * c
    for x, y in pts:
        predicted = Fraction(0)
        for c in reversed(coeffs):
            predicted = predicted * x + c
        if predicted != y:
            raise NonPolynomialCountError(
                f"count at q={x} is {y} but the degree-{degree_bound} fit "
                f"predicts {predicted}"
            )
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _outcome(fn, points, bound):
    try:
        return "value", fn(points, bound)
    except (ValueError, NonPolynomialCountError) as err:
        return type(err).__name__, str(err)


@st.composite
def point_sets(draw):
    xs = draw(st.lists(st.integers(-30, 60), min_size=1, max_size=9, unique=True))
    if draw(st.booleans()):
        # values of an integer polynomial, possibly with one point moved
        coeffs = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=7))
        ys = [sum(c * x**i for i, c in enumerate(coeffs)) for x in xs]
        if draw(st.booleans()):
            ys[draw(st.integers(0, len(ys) - 1))] += draw(st.integers(-3, 3))
    else:
        ys = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(xs), max_size=len(xs)))
    return list(zip(xs, ys)), draw(st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_newton_matches_lagrange(case):
    points, bound = case
    outcome = _outcome(interpolate, points, bound)
    assert outcome == _outcome(reference_interpolate, points, bound)
    if outcome[0] == "value":
        # int unless fractional
        assert all(type(c) is int for c in outcome[1] if c.denominator == 1)


def test_interpolate_pinned():
    assert interpolate({2: 5, 3: 7, 5: 11}, 1) == (1, 2)
    assert interpolate({2: 1, 3: 1, 5: 1}, 0) == (1,)
    assert interpolate({2: 3, 3: 4, 5: 6}, 1) == (1, 1)
    assert interpolate([(2, 0), (3, 0), (5, 0)], 1) == (0,)
    assert interpolate({2: 9, 3: 16, 5: 36, 7: 64}, 2) == (1, 2, 1)


def test_interpolate_failure_modes():
    with pytest.raises(NonPolynomialCountError):
        interpolate({2: 5, 3: 7, 5: 12}, 1)
    with pytest.raises(ValueError):
        interpolate({2: 5, 3: 7}, 1)  # needs bound + 2 points
    with pytest.raises(ValueError):
        interpolate({2: 5, 2: 7, 5: 11}, 1)  # duplicate key collapses to 2 points


def reference_point_count_table(nu, mu, n=None, *, primes=None):
    """The degree search point_count_table made before it read the degree
    off one Newton table: every bound b = 0, 1, ... is refitted from
    scratch (here with the Lagrange reference_interpolate) until one fits,
    with the same primes, checks and messages.  Counts come from
    springercount.count_fiber_points, looked up at call time."""
    nu = as_partition(nu)
    steps = _checked_steps(mu, n)
    cap = sum(a * b for a, b in itertools.combinations(steps, 2))
    values = {}

    def value(p):
        if p not in values:
            values[p] = springercount.count_fiber_points(p, nu, steps)
        return values[p]

    def finish(coeffs):
        ints = []
        for c in coeffs:
            if c.denominator != 1 or c < 0:
                raise InvariantViolation(
                    f"count polynomial for nu={nu}, mu={steps} has coefficient "
                    f"{c}; expected a nonnegative integer"
                )
            ints.append(int(c))
        return PointCountTable(
            nu=nu, mu=steps, evaluations=tuple(sorted(values.items())),
            coefficients=tuple(ints),
        )

    last_error = None
    if primes is not None:
        plist = sorted(int(p) for p in primes)
        if len(set(plist)) != len(plist) or any(not is_prime(p) for p in plist):
            raise ValueError("primes must be distinct primes")
        if len(plist) < 2:
            raise ValueError("need at least two primes")
        sample = [(p, value(p)) for p in plist]
        for bound in range(min(cap, len(plist) - 2) + 1):
            try:
                return finish(reference_interpolate(sample, bound))
            except NonPolynomialCountError as err:
                last_error = err
        raise NonPolynomialCountError(
            f"no polynomial of degree <= {min(cap, len(plist) - 2)} fits the "
            f"supplied counts for nu={nu}, mu={steps}"
        ) from last_error

    plist = first_primes(cap + 3)
    for bound in range(cap + 1):
        sample = [(p, value(p)) for p in plist[: bound + 3]]
        try:
            coeffs = reference_interpolate(sample, bound)
        except NonPolynomialCountError as err:
            last_error = err
            continue
        extra = [(p, value(p)) for p in plist[bound + 3 : cap + 1]]
        if any(eval_poly(coeffs, p) != v for p, v in extra):
            continue
        return finish(coeffs)
    raise NonPolynomialCountError(
        f"no polynomial of degree <= {cap} fits the counts for nu={nu}, mu={steps}"
    ) from last_error


def _table_outcome(fn, nu, mu, n, primes):
    """Coefficients and evaluations, or the exception and its cause."""
    try:
        table = fn(nu, mu, n, primes=primes)
    except (ValueError, NonPolynomialCountError, InvariantViolation) as err:
        cause = err.__cause__
        return (type(err).__name__, str(err),
                type(cause).__name__, str(cause) if cause else None)
    assert all(type(c) is int for c in table.coefficients)
    return "value", table.coefficients, table.evaluations


_SMALL_PRIMES = first_primes(12)

prime_lists = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_SMALL_PRIMES), min_size=2, max_size=10, unique=True),
    st.lists(st.integers(1, 40), max_size=4),
)


@st.composite
def flag_cases(draw):
    total = draw(st.integers(0, 7))
    nu = draw(st.sampled_from(list(partitions(total))))
    k = draw(st.integers(1, 7))
    mu = draw(st.sampled_from(list(compositions(total, k))))
    n = draw(st.one_of(st.none(), st.integers(k, k + 2)))
    return nu, mu, n, draw(prime_lists)


def examples(cases):
    """Stack one hypothesis @example per case."""
    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test
    return apply


def reference_skeleton_count(q, nu, mu, n=None):
    """The forward pass evaluated directly at the prime q, where
    count_fiber_points reads its count polynomial off passes at q = 1
    and q = 2^B: {Jordan type of V/F_i: number of partial flags} in a
    dict, one springercount._transitions lookup per state and jump (zero
    jumps included) and one call of a ways closure per edge, which
    evaluates each q-binomial once."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    nu = as_partition(nu)
    steps = _checked_steps(mu, n)
    if sum(steps) != sum(nu):
        return 0
    binomials = {}

    def ways(binomial_args, power):
        total = q**power
        for args in binomial_args:
            value = binomials.get(args)
            if value is None:
                value = binomials[args] = gaussian_binomial(*args, q)
            total *= value
        return total

    states = {nu: 1}
    for k in steps:
        grown = {}
        for shape, count in states.items():
            for quotient, binomial_args, power in springercount._transitions(shape, k):
                grown[quotient] = grown.get(quotient, 0) + count * ways(binomial_args, power)
        states = grown
    return states.get((), 0)


_SMALL_NU = [nu for total in range(8) for nu in partitions(total)]
_LARGE_PRIMES = [10**9 + 7, 2**61 - 1, 10**18 + 3]


def test_count_matches_the_pass_at_the_prime_on_every_small_nu():
    for nu in _SMALL_NU:
        total = sum(nu)
        for mu in {(1,) * total, conjugate(nu), (total,), (0, total, 0)}:
            for q in (2, 3, 10**18 + 3):
                assert count_fiber_points(q, nu, mu) == reference_skeleton_count(
                    q, nu, mu
                ), (nu, mu, q)


@st.composite
def skeleton_cases(draw):
    """Any nu of at most 7 boxes; jumps with zeros, usually adding up to
    |nu|; sometimes padding n; small primes and large ones."""
    nu = draw(st.sampled_from(_SMALL_NU))
    total = sum(nu) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    k = draw(st.integers(1, 7))
    mu = draw(st.sampled_from(list(compositions(max(total, 0), k))))
    n = draw(st.one_of(st.none(), st.integers(k, k + 3)))
    q = draw(st.sampled_from(_SMALL_PRIMES + _LARGE_PRIMES))
    return q, nu, mu, n


@settings(max_examples=300, deadline=None)
@given(skeleton_cases())
@examples([
    (2, (), (), None),
    (3, (), (0, 0), 4),
    (10**18 + 3, (4, 2, 1), (0, 3, 0, 2, 2, 0), 8),
    (5, (3, 3, 1), (1,) * 7, None),
])
def test_count_matches_the_pass_at_the_prime(case):
    q, nu, mu, n = case
    assert count_fiber_points(q, nu, mu, n) == reference_skeleton_count(q, nu, mu, n)


def test_count_polynomial_cache_is_bounded():
    # one bounded cache, on the polynomials; the passes behind it keep
    # nothing
    assert springercount._count_polynomial.cache_info().maxsize is not None
    assert not hasattr(springercount._flag_count, "cache_info")


def test_one_polynomial_is_two_passes(monkeypatch):
    # (2,2,1,1) at 1^6 meets the same q-binomial on several edges of a
    # pass; each distinct one is evaluated once, and never at q = 1
    honest_count, honest_transitions = springercount._flag_count, springercount._transitions
    passes, evaluated, on_edges = [], [], []

    def flag_count(nu, steps, q):
        passes.append(q)
        on_edges.clear()
        return honest_count(nu, steps, q)

    def transitions(shape, k):
        found = honest_transitions(shape, k)
        on_edges.extend(args for _, binomial_args, _ in found for args in binomial_args)
        return found

    def binomial(a, b, q):
        evaluated.append((a, b, q))
        return gaussian_binomial(a, b, q)

    monkeypatch.setattr(springercount, "_flag_count", flag_count)
    monkeypatch.setattr(springercount, "_transitions", transitions)
    monkeypatch.setattr(springercount, "gaussian_binomial", binomial)
    coeffs = springercount._count_polynomial.__wrapped__((2, 2, 1, 1), (1,) * 6)
    assert coeffs[-1] == kostka((4, 2), (1,) * 6)
    assert len(passes) == 2 and passes[0] == 1
    base = passes[1]
    assert base > 1 and base & (base - 1) == 0
    assert sorted(evaluated) == sorted((a, b, base) for a, b in set(on_edges))
    assert len(on_edges) > len(set(on_edges))


def test_count_polynomial_matches_the_fit_of_the_dict_pass():
    # every nu of at most 6 boxes against full flags, its conjugate, one
    # step, and its own parts reversed between zero jumps
    for total in range(7):
        for nu in partitions(total):
            zeros = (0,) + tuple(reversed(nu)) + (0,)
            for mu in {(1,) * total, conjugate(nu), (total,), zeros}:
                steps = tuple(k for k in mu if k)
                cap = sum(a * b for a, b in itertools.combinations(steps, 2))
                points = [(p, reference_skeleton_count(p, nu, mu))
                          for p in first_primes(cap + 2)]
                expected = reference_interpolate(points, cap)
                poly = springercount._count_polynomial(nu, steps)
                assert (poly or (0,)) == expected, (nu, mu)
                assert all(type(c) is int and c >= 0 for c in poly), (nu, mu)


def test_count_polynomial_digit_sum_check_fires(monkeypatch):
    # [2 choose 1]_q = q + 1 doctored to q^2 - q + 2: the same value 2 at
    # q = 1, but a negative coefficient borrows across the base-2^B digits
    honest = springercount.gaussian_binomial

    def doctored(a, b, q):
        return q * q - q + 2 if (a, b) == (2, 1) else honest(a, b, q)

    monkeypatch.setattr(springercount, "gaussian_binomial", doctored)
    monkeypatch.setattr(
        springercount, "_count_polynomial", springercount._count_polynomial.__wrapped__
    )
    with pytest.raises(InvariantViolation, match="do not sum to its count 2"):
        count_fiber_points(5, (1, 1), (1, 1))


# The stop rule's edges: degree = cap, cap 0, an empty fibre, and an
# explicit list too short for the degree, which is refused.
EDGE_CASES = [
    ((1, 1, 1), (2, 1), None, None),
    ((1,), (1,), None, None),
    ((3,), (2, 1), None, None),
    ((2, 1), (1, 1, 1), 3, [2, 3]),
]


@settings(max_examples=150, deadline=None)
@given(flag_cases())
@examples(EDGE_CASES)
def test_degree_search_matches_the_refit_loop(case):
    nu, mu, n, primes = case
    assert _table_outcome(point_count_table, nu, mu, n, primes) == _table_outcome(
        reference_point_count_table, nu, mu, n, primes
    )


@st.composite
def doctored_counts(draw):
    """A flag case, a prime list, and a doctoring of the counts: one count
    moved at one printed prime, or every count taken from another
    polynomial that differs from the honest one in a coefficient of
    index at most its degree + 1."""
    nu = draw(st.sampled_from([nu for total in range(6) for nu in partitions(total)]))
    total = sum(nu) + draw(st.sampled_from([0, 0, 0, 1]))
    mu = draw(st.sampled_from(list(compositions(total, draw(st.integers(1, 4))))))
    primes = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(_SMALL_PRIMES), min_size=2, max_size=10, unique=True),
    ))
    moved = draw(st.integers(0, 20))
    shift = draw(st.sampled_from([-2, -1, 1, 3]))
    replace = draw(st.booleans())
    return nu, mu, primes, moved, shift, replace


@settings(max_examples=200, deadline=None)
@given(doctored_counts())
@examples([
    ((2, 1), (1, 1, 1), None, 0, 1, False),
    ((2, 1), (1, 1, 1), None, 4, -1, False),
    ((2, 1), (1, 1, 1), None, 2, 1, True),
    ((1, 1, 1), (2, 1), [2, 3, 5], 1, 1, False),
    ((3,), (2, 1), None, 1, 3, True),
    ((2, 1), (1, 1, 1), [2, 3], 0, 1, True),
])
def test_doctored_counts_are_never_tabulated(case):
    # Counts no flag program makes never come back as a table: the one fit
    # at the program's degree fails or gives another polynomial, and a
    # refused explicit list stays refused.  The other polynomial differs
    # from the honest one by degree at most d + 1, below the number of
    # printed primes (at least d + 2), so it differs at one of them.
    nu, mu, primes, moved, shift, replace = case
    honest = springercount.count_fiber_points
    try:
        table = point_count_table(nu, mu, primes=primes)
    except NonPolynomialCountError:
        printed, coeffs = sorted(primes), (0,)
    else:
        printed, coeffs = [p for p, _ in table.evaluations], table.coefficients
    at = printed[moved % len(printed)]
    other = list(coeffs) + [0]
    other[moved % len(other)] += shift

    def doctored(q, nu, mu, n=None):
        if replace:
            return eval_poly(other, q)
        return honest(q, nu, mu, n) + (shift if q == at else 0)

    with mock.patch.object(springercount, "count_fiber_points", doctored):
        with pytest.raises((NonPolynomialCountError, InvariantViolation)):
            point_count_table(nu, mu, primes=primes)


def test_point_count_table_default_primes():
    table = point_count_table((2, 1), (1, 1, 1), 3)
    assert table.coefficients == (1, 2)
    assert table.degree == 1
    assert table.leading_coefficient == 2
    assert table.lam == (2, 1)
    evals = dict(table.evaluations)
    assert evals[2] == 5 and evals[3] == 7
    for q, c in table.evaluations:
        assert eval_poly(table.coefficients, q) == c


def test_point_count_table_explicit_primes():
    table = point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 3, 5])
    assert table.coefficients == (1, 2)
    assert dict(table.evaluations) == {2: 5, 3: 7, 5: 11}


def test_point_count_table_prime_validation():
    with pytest.raises(ValueError):
        point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 4, 5])
    with pytest.raises(ValueError):
        point_count_table((2, 1), (1, 1, 1), 3, primes=[5])
    with pytest.raises(ValueError):
        point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 3, 3])
    # two primes cannot pin down a linear count: must refuse, not fit
    with pytest.raises(NonPolynomialCountError):
        point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 3])


def test_point_count_table_demands_the_fit_of_its_polynomial(monkeypatch):
    # (2,1) on full flags counts 1 + 2q; counts of 1 + 3q fit, but not it
    monkeypatch.setattr(
        springercount, "count_fiber_points", lambda q, nu, mu, n=None: 1 + 3 * q
    )
    with pytest.raises(InvariantViolation, match=r"fit \(1, 3\), not their count"):
        point_count_table((2, 1), (1, 1, 1), 3)
    # two primes cannot pin down 1 + 2q; constant counts would fit degree 0
    monkeypatch.setattr(springercount, "count_fiber_points", lambda q, nu, mu, n=None: 5)
    with pytest.raises(InvariantViolation, match="fit degree 0, below the degree 1"):
        point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 3])


class SkewedSquare(int):
    """An integer q whose square comes out one too large."""

    def __pow__(self, e):
        return int(self) ** e + (e == 2)


def test_gaussian_binomial_divisibility_check_fires():
    # [2 choose 1]_q = (q^2 - 1) / (q - 1); with q^2 one too large the
    # quotient q^2 / (q - 1) leaves remainder 1
    with pytest.raises(InvariantViolation, match="did not divide exactly"):
        gaussian_binomial(2, 1, SkewedSquare(3))


def test_springer_cli_reports_a_failed_q_binomial(monkeypatch, capsys):
    # the pass at q = 2^B evaluates [2 choose 1]_q with a skewed square;
    # the uncached polynomial keeps the skewed run out of the cache
    honest = springercount._flag_count
    monkeypatch.setattr(
        springercount,
        "_flag_count",
        lambda nu, steps, q: honest(nu, steps, SkewedSquare(q) if q > 1 else q),
    )
    monkeypatch.setattr(
        springercount, "_count_polynomial", springercount._count_polynomial.__wrapped__
    )
    assert main(["springer", "--nu", "1,1", "--mu", "1,1", "-n", "2"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: q-binomial product did not divide exactly\n")


def test_component_count_checks_kostka(monkeypatch):
    honest = springercount.kostka
    monkeypatch.setattr(
        springercount, "kostka", lambda *args, **kwargs: honest(*args, **kwargs) + 1
    )
    with pytest.raises(
        InvariantViolation, match="leading coefficient 2 disagrees with the Kostka count 3"
    ):
        component_count((2, 1), (1, 1, 1), 3)


@st.composite
def crossval_cases(draw):
    """A shape lam of at most 5 boxes, and ranks n, m <= 4 that hold it."""
    lam = draw(st.sampled_from([
        lam for total in range(6) for lam in partitions(total)
        if len(lam) <= 4 and (not lam or lam[0] <= 4)
    ]))
    n = draw(st.integers(max(lam[:1] or (1,)), 4))
    m = draw(st.integers(max(len(lam), 1), 4))
    return lam, n, m


@settings(max_examples=40, deadline=None)
@given(crossval_cases())
@examples([((2, 2), 3, 3), ((), 1, 1), ((1, 1, 1, 1), 2, 4)])
def test_count_polynomial_is_the_polynomial_of_the_table(case):
    # crossval tabulates only each orbit's sorted mu and reads every other
    # mu's springer value off count_polynomial: both are the table's, at
    # every mu of at most n parts, whatever its jumps sum to
    lam, n, m = case
    for row in cross_validate(lam, n, m).rows:
        assert row.springer == point_count_table(lam, row.mu, n).leading_coefficient
    for total in range(max(sum(lam) - 1, 0), sum(lam) + 2):
        for k in range(n + 1):
            for mu in compositions(total, k):
                table = point_count_table(lam, mu, n)
                assert springercount.count_polynomial(lam, mu, n) == table.coefficients


def test_point_count_table_empty_fiber():
    table = point_count_table((3,), (2, 1), 2)
    assert table.coefficients == (0,)
    assert table.leading_coefficient == 0
    assert component_count((3,), (2, 1), 2) == 0


def test_component_count_pinned():
    assert component_count((2, 1), (1, 1, 1), 3) == 2
    assert component_count((1, 1, 1), (1, 2), 2) == 1
    for total in range(1, 6):
        for nu in partitions(total):
            assert component_count(nu, conjugate(nu)) == 1


def test_component_count_is_kostka_everywhere_small():
    leads = {}
    for total in range(1, 6):
        for nu in partitions(total):
            for k in range(1, 5):
                for mu in compositions(total, k):
                    lead = point_count_table(nu, mu, k).leading_coefficient
                    assert lead == kostka(conjugate(nu), mu), (nu, mu)
                    key = (nu, k, tuple(sorted(mu, reverse=True)))
                    assert leads.setdefault(key, lead) == lead  # S_n symmetry
