import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import (
    from_man_exp, from_rational, fzero, mpf_abs, mpf_cmp, mpf_neg, round_nearest, to_rational,
)

from ineqprove import (
    ConfigurationError,
    ConvergenceError,
    Polynomial,
    Precision,
    SingularSystemError,
    minimax,
    verify_equioscillation,
)
from ineqprove import remez
from ineqprove.precision import context, finite_segment, rounding_floor
from ineqprove.remez import (
    CachedFunction, MinimaxResult, _exchange_core, _polish_max, _solve_levelled_system, _units,
    chebyshev_grid, largest_magnitude, magnitude_keys, residual_sweep,
)

from helpers import ambient, clenshaw_reference, exact_taylor, gauss_jordan


class TestInitialNodes:
    """The k+2 Chebyshev extremum abscissae minimax starts from."""

    def test_symmetric_unit(self, p50):
        with ambient(p50):
            nodes = chebyshev_grid(mp.mpf(-1), mp.mpf(1), 3)
        assert nodes[0] == -1 and nodes[2] == 1
        assert abs(nodes[1]) < mpmath.mpf("1e-50")

    def test_affine_map(self, p50):
        with ambient(p50):
            nodes = chebyshev_grid(mp.mpf(0), mp.mpf(1), 3)
        assert nodes[0] == 0 and nodes[2] == 1
        assert abs(nodes[1] - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")

    def test_degree_two(self, p50):
        with ambient(p50):
            nodes = chebyshev_grid(mp.mpf(-1), mp.mpf(1), 4)
        expected = ["-1", "-0.5", "0.5", "1"]
        for node, want in zip(nodes, expected):
            assert abs(node - mpmath.mpf(want)) < mpmath.mpf("1e-50")


class TestNestedGrids:
    """A grid whose interval count is a multiple of another's holds it bit for bit."""

    @pytest.mark.parametrize("ratio", [2, 3])
    @pytest.mark.parametrize("digits", [30, 35, 50])
    @pytest.mark.parametrize("a, b", [(0, 1), (0, "pi/2"), (-1, 1)])
    def test_every_ratio_th_point_is_the_coarse_grid(self, a, b, digits, ratio):
        av, bv = finite_segment(a, b, Precision(digits))
        for intervals in (3, 12, 192):
            coarse = chebyshev_grid(av, bv, intervals + 1)
            fine = chebyshev_grid(av, bv, ratio * intervals + 1)
            assert [x._mpf_ for x in fine[::ratio]] == [x._mpf_ for x in coarse]

    def test_table_memo_is_bounded(self):
        # it keeps the most recently used tables, as many as its maxsize
        tables = remez._chebyshev_table
        tables.cache_clear()
        limit = tables.cache_info().maxsize
        av, bv = finite_segment(0, 1, Precision(30))
        # odd interval counts: each table is built on its own
        counts = range(4, 4 + 4 * limit, 2)
        for count in counts:
            chebyshev_grid(av, bv, count)
        assert tables.cache_info().currsize == limit
        hits = tables.cache_info().hits
        for count in counts[-limit:]:
            chebyshev_grid(av, bv, count)
        assert tables.cache_info().hits == hits + limit
        chebyshev_grid(av, bv, counts[0])
        assert tables.cache_info().hits == hits + limit

    @pytest.mark.parametrize("ratio", [2, 3])
    @pytest.mark.parametrize("digits", [30, 50])
    def test_table_from_its_half_equals_a_cold_build(self, digits, ratio, monkeypatch):
        # an even interval count takes every other point and its u from its half
        intervals = ratio * 192
        ctx = context(Precision(digits))
        av, bv = finite_segment(0, "pi/2", Precision(digits))
        mid, hw = (av + bv) / 2, (bv - av) / 2
        cold = [av]
        for i in range(1, intervals):
            t = Fraction(i, intervals)
            cold.append(mid - hw * ctx.cos(ctx.pi * t.numerator / t.denominator))
        cold.append(bv)
        cold_units = list(_units((av, bv), cold))
        remez._chebyshev_table.cache_clear()
        half = remez.chebyshev_table(av, bv, intervals // 2 + 1)
        cos, cosines = ctx.cos, []
        monkeypatch.setattr(ctx, "cos", lambda x: cosines.append(x) or cos(x))
        points, units = remez.chebyshev_table(av, bv, intervals + 1)
        assert [x._mpf_ for x in points] == [x._mpf_ for x in cold]
        assert list(units) == cold_units
        # the shared points and u are the half table's own objects
        assert all(w is c for w, c in zip(points[::2], half[0]))
        assert all(w is c for w, c in zip(units[::2], half[1]))
        # a cosine for each new point, and none kept
        assert len(cosines) == len(points) - len(half[0])

    def test_threads_sharing_the_memo_get_the_solo_bits(self):
        # tables built, built from their halves and evicted while other
        # threads read the memo
        counts = range(3, 41)
        segments = [finite_segment(0, 1, Precision(d)) for d in (30, 50)]

        def bits(count, a, b):
            points, units = remez.chebyshev_table(a, b, count)
            return [x._mpf_ for x in points], list(units)

        solo = {(count, i): bits(count, *segments[i]) for count in counts for i in range(2)}
        remez._chebyshev_table.cache_clear()

        def work(seed):
            rng = random.Random(seed)
            for _ in range(600):
                key = rng.choice(counts), rng.randrange(2)
                if bits(key[0], *segments[key[1]]) != solo[key]:
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work, seed) for seed in range(4)]
                assert all(future.result(timeout=120) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        info = remez._chebyshev_table.cache_info()
        assert info.currsize == info.maxsize


class TestResidualSweep:
    """One sweep of g - P keeps the bits of the one-point path g(x) - P.evaluate(x)."""

    @pytest.mark.parametrize("digits", [30, 50])
    @pytest.mark.parametrize("a, b", [(0, 1), (0, "pi/2"), (-1, 1)])
    def test_bits_of_the_one_point_path(self, a, b, digits):
        p = Precision(digits)
        ctx = context(p)
        av, bv = finite_segment(a, b, p)
        rng = random.Random(f"{a},{b},{digits}")
        xs = list(chebyshev_grid(av, bv, 25))
        xs += [av + (bv - av) * ctx.mpf(rng.random()) for _ in range(25)]
        units = tuple(_units((av, bv), xs))
        g = CachedFunction(lambda x: x.context.sin(3 * x) + x.context.exp(-x))
        for degree in range(9):
            for _ in range(3):
                # some exact zeros, the rest with full mantissas
                coeffs = tuple(ctx.mpf(0) if rng.random() < 0.2
                               else ctx.mpf(rng.randint(-10 ** 6, 10 ** 6)) / rng.choice((3, 7))
                               for _ in range(degree + 1))
                P = Polynomial(coefficients=coeffs, segment=(av, bv))
                want_p = [clenshaw_reference(P, x)._mpf_ for x in xs]
                assert [P.evaluate(x)._mpf_ for x in xs] == want_p
                want = [(g(x) - P.evaluate(x))._mpf_ for x in xs]
                g_values = [g(x)._mpf_ for x in xs]
                assert list(residual_sweep(g_values, P, xs)) == want
                assert list(residual_sweep(g_values, P, xs, units)) == want

    @pytest.mark.parametrize("case", ["degree 0", "zero", "zero degree 3", "exact zeros",
                                      "400-bit spread", "degree 16", "away from 0"])
    def test_edge_cases_are_correctly_rounded(self, case, p50):
        ctx = context(p50)
        rng = random.Random(case)
        third = ctx.mpf(1) / 3
        coefficients = {
            "degree 0": [third],
            "zero": [0],
            "zero degree 3": [0] * 4,
            "exact zeros": [0, third, 0, 0, ctx.mpf(-5) / 7, 0],
            "400-bit spread": [ctx.ldexp(third, 200), ctx.mpf(-5) / 7,
                               ctx.ldexp(ctx.mpf(1) / 7, -200), ctx.ldexp(third, -100)],
            "degree 16": [ctx.mpf(rng.randint(-10 ** 6, 10 ** 6)) / 3 for _ in range(17)],
            "away from 0": [ctx.mpf(2) / 3, ctx.mpf(-1) / 7, ctx.mpf(3) / 11, third],
        }[case]
        a, b = (2, 5) if case == "away from 0" else (-1, 1)
        av, bv = finite_segment(a, b, p50)
        P = Polynomial(coefficients=tuple(ctx.mpf(c) for c in coefficients), segment=(av, bv))
        # on [-1, 1], u is x: -1, 0, +1 and +-2^-200 among them
        tiny = ctx.ldexp(1, -200)
        xs = [av, (av + bv) / 2, bv, tiny, -tiny]
        xs += [av + (bv - av) * ctx.mpf(rng.random()) for _ in range(10)]
        units = tuple(_units((av, bv), xs))
        if (a, b) == (-1, 1):
            assert list(units[:5]) == [x._mpf_ for x in xs[:5]]
        want = [clenshaw_reference(P, x)._mpf_ for x in xs]
        assert [P.evaluate(x)._mpf_ for x in xs] == want
        assert list(P._values(xs, units)) == want

    def test_minimax_hands_out_the_residuals_of_its_polynomial(self, p50):
        g = CachedFunction(lambda x: x.context.exp(x))
        r = minimax(g, 0, 1, 2, p=p50, grid_multiplier=4)
        av, bv = finite_segment(0, 1, p50)
        grid = chebyshev_grid(av, bv, 4 * 4 + 1)
        assert set(r.residuals) == {x._mpf_ for x in grid + r.nodes}
        assert [r.residuals[x._mpf_] for x in grid] == \
            [(g(x) - r.polynomial.evaluate(x))._mpf_ for x in grid]

    @pytest.mark.parametrize("fn, a, k", [
        (lambda x: x.context.exp(x), 0, 2),  # converged by an exchange
        (lambda x: x * x, 0, 2),  # exact: the zero floor
        (lambda x: x * x, -1, 0),  # h = 0: a single-point exchange
    ])
    def test_minimax_hands_out_its_node_residuals(self, fn, a, k, p50):
        g = CachedFunction(fn)
        r = minimax(g, a, 1, k, p=p50)
        assert [r.residuals[t._mpf_] for t in r.nodes] == \
            [(g(t) - r.polynomial.evaluate(t))._mpf_ for t in r.nodes]
        assert [v._mpf_ for v in r.node_values] == [g(t)._mpf_ for t in r.nodes]


# at most this many bits in the tuples of the magnitude-key property
_KEY_PREC = 80


@st.composite
def _libmp_values(draw):
    """Normalized libmp tuples of at most _KEY_PREC bits: zero, either sign, any bit count."""
    bits = draw(st.integers(0, _KEY_PREC))
    if bits == 0:
        return fzero
    man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    # near exponents make orders of magnitude tie, so the mantissas decide
    exp = draw(st.integers(-4, 4) | st.integers(-300, 300))
    return from_man_exp(-man if draw(st.booleans()) else man, exp)


@settings(max_examples=400, deadline=None)
@given(_libmp_values(), _libmp_values(), st.booleans())
@example(fzero, fzero, False)
@example(fzero, from_man_exp(1, -10 ** 6), False)
@example(from_man_exp(3, 0), from_man_exp(1, 2), False)
@example(from_man_exp(-5, 3), fzero, True)
def test_magnitude_keys_order_as_mpf_cmp(a, b, mirror):
    if mirror:
        # equal magnitudes of opposite sign
        b = mpf_neg(a)
    ka, kb = magnitude_keys([a, b], _KEY_PREC)
    assert (ka > kb) - (ka < kb) == mpf_cmp(mpf_abs(a), mpf_abs(b))
    # the first of equal magnitudes, its magnitude decoded from its key
    first = 0 if ka >= kb else 1
    assert largest_magnitude([a, b], _KEY_PREC) == (first, mpf_abs((a, b)[first]))


def _levelled(g, nodes, a, b, p):
    with ambient(p):
        return _solve_levelled_system(g, [mp.mpf(t) for t in nodes], mp.mpf(a), mp.mpf(b), p)


# nodes of the exact-solve property are multiples of 2^-_NODE_BITS in [0, 1]
_NODE_BITS = 10


@st.composite
def _levelled_cases(draw):
    """(k, nodes as integers n standing for n 2^-_NODE_BITS, strictly increasing, g at each)."""
    k = draw(st.integers(0, 8))
    ticks = draw(st.lists(st.integers(0, 2 ** _NODE_BITS), min_size=k + 2, max_size=k + 2,
                          unique=True))
    return k, sorted(ticks), draw(st.lists(_libmp_values(), min_size=k + 2, max_size=k + 2))


def _exact_levelled_solution(nodes, g_values, k, p):
    """The oracle: the levelled system on [0, 1], solved exactly, each unknown rounded once.

    Each T_j(u) comes from the three-term recurrence on Fractions, so the
    rows equal the package's only where its rounded recurrence is exact.
    """
    rows = []
    for i, (t, g) in enumerate(zip(nodes, g_values)):
        u = 2 * Fraction(*to_rational(t._mpf_)) - 1
        basis = [Fraction(1), u]
        while len(basis) <= k:
            basis.append(2 * u * basis[-1] - basis[-2])
        rows.append(basis[:k + 1] + [(-1) ** i, Fraction(*to_rational(g._mpf_))])
    prec = context(p).prec
    return [from_rational(x.numerator, x.denominator, prec, round_nearest)
            for x in gauss_jordan(rows)]


def _solve_on_unit(nodes, g_values, p):
    """``_solve_levelled_system`` on [0, 1], g by its node values: the c_j, then h, as tuples."""
    a, b = finite_segment(0, 1, p)
    P, h = _solve_levelled_system(dict(zip(nodes, g_values)).__getitem__, nodes, a, b, p)
    return [c._mpf_ for c in P.coefficients + (h,)]


class TestLevelledSystem:
    @settings(max_examples=150, deadline=None)
    @given(case=_levelled_cases())
    @example(case=(8, list(range(0, 2 ** _NODE_BITS, 2 ** _NODE_BITS // 9)), [fzero] * 10))
    @example(case=(0, [0, 2 ** _NODE_BITS], [from_man_exp(3, 300), from_man_exp(-1, -300)]))
    def test_exact_solution_rounded_once(self, case, p30):
        # at most 11 bits in u make every T_j(u), j <= 8, exact at 30 digits,
        # so the package's rows are the oracle's, and the solution its bits
        k, ticks, g_tuples = case
        ctx = context(p30)
        nodes = [ctx.ldexp(t, -_NODE_BITS) for t in ticks]
        g_values = [ctx.make_mpf(v) for v in g_tuples]
        assert _solve_on_unit(nodes, g_values, p30) == \
            _exact_levelled_solution(nodes, g_values, k, p30)

    def test_zero_pivot_takes_a_row_swap(self, p50):
        # u = 0 at both nodes 0.5, so the second pivot is exactly 0 once the
        # first column is eliminated; the third row's pivot takes its place
        ctx = context(p50)
        nodes = [ctx.mpf("0.5"), ctx.mpf("0.5"), ctx.mpf("0.9")]
        g_values = [ctx.mpf(1) / 3, ctx.mpf(1) / 3, ctx.exp(ctx.mpf("0.9"))]
        got = _solve_on_unit(nodes, g_values, p50)
        assert got == _exact_levelled_solution(nodes, g_values, 1, p50)
        assert got[-1] == fzero

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_g_refused(self, bad, p50):
        ctx = context(p50)
        with pytest.raises(ConfigurationError, match="^" + re.escape(
                f"cannot interpret {ctx.mpf(bad)!r} as a real number") + "$"):
            _solve_on_unit([ctx.mpf(0), ctx.mpf(1)], [ctx.mpf(1), ctx.mpf(bad)], p50)

    def test_three_coincident_nodes_are_singular(self, p50):
        ctx = context(p50)
        nodes = [ctx.mpf("0.5")] * 3
        with pytest.raises(SingularSystemError, match="singular"):
            _solve_on_unit(nodes, [ctx.mpf(1), ctx.mpf(2), ctx.mpf(3)], p50)

    def test_parabola_three_nodes(self, p50):
        # 3x3 hand solve: 1 = P(-1)+h, 0 = P(0)-h, 1 = P(1)+h gives P = 1/2, h = 1/2
        P, h = _levelled(lambda x: x * x, (-1, 0, 1), -1, 1, p50)
        assert abs(h - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")
        assert abs(P.coefficients[0] - mpmath.mpf("0.5")) < mpmath.mpf("1e-50")
        assert abs(P.coefficients[1]) < mpmath.mpf("1e-50")

    def test_constant_exact(self, p50):
        P, h = _levelled(lambda x: mpmath.mpf(7), ("0.2", "0.8"), 0, 1, p50)
        assert abs(P.coefficients[0] - 7) < mpmath.mpf("1e-49")
        assert abs(h) < mpmath.mpf("1e-49")

    def test_linear_exact(self, p50):
        P, h = _levelled(lambda x: x, (0, "0.5", 1), 0, 1, p50)
        assert abs(h) < mpmath.mpf("1e-50")
        mono = P.to_monomial()
        assert abs(mono[0]) < mpmath.mpf("1e-49")
        assert abs(mono[1] - 1) < mpmath.mpf("1e-49")


def _exchange(fn, p):
    """_exchange_core on g = fn against P = 0 (degree 0), on 33 Chebyshev points of [0, 1].

    The reference is the 2-point Chebyshev one, (0, 1).
    """
    a, b = finite_segment(0, 1, p)
    poly = Polynomial(coefficients=(context(p).zero,), segment=(a, b))
    g = CachedFunction(fn)
    grid = chebyshev_grid(a, b, 33)
    rs = list(residual_sweep([g(x)._mpf_ for x in grid], poly, grid))
    return _exchange_core(g, poly, grid, rs, chebyshev_grid(a, b, 2))


@st.composite
def _exchange_cases(draw):
    """(k, a reference as in ``_levelled_cases``, g's polynomial part, g's sine frequency)."""
    k = draw(st.integers(0, 3))
    ticks = draw(st.lists(st.integers(0, 2 ** _NODE_BITS), min_size=k + 2, max_size=k + 2,
                          unique=True))
    coefficients = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
    return k, sorted(ticks), coefficients, draw(st.integers(0, 12))


class TestExchange:
    """The reference the exchange settles on, seen through minimax and directly."""

    def test_parabola_fixed_point(self, p50):
        result = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        assert len(result.nodes) == 3
        for node, want in zip(result.nodes, (-1, 0, 1)):
            assert abs(node - want) < mpmath.mpf("1e-10")
        with ambient(p50):
            residuals = [t * t - result.polynomial.evaluate(t) for t in result.nodes]
        assert [r > 0 for r in residuals] == [True, False, True]

    def test_exp_interior_node(self, p50):
        # the interior extremum of exp(x) - (c + (e-1) x) is at log(e-1)
        result = minimax(mpmath.exp, 0, 1, 1, p=p50)
        with ambient(p50):
            assert abs(result.nodes[1] - mp.log(mp.e - 1)) < mp.mpf("1e-12")

    def test_same_sign_extrema_keep_the_larger(self, p50):
        # residual bumps +7/6 near 1/6 and +3/2 near 1/2, then -1 near 5/6:
        # the two positive bumps merge into the larger one
        def fn(x):
            ctx = x.context
            bump = abs(ctx.sin(3 * ctx.pi * x))
            return (1 + x) * bump if 3 * x <= 2 else -bump

        nodes, residuals = _exchange(fn, p50)
        assert 1 < 3 * nodes[0] < 2 < 3 * nodes[1] < 3
        assert residuals[0] > mpmath.mpf("1.4") and residuals[1] < 0

    def test_surplus_extremum_trimmed_at_the_smaller_end(self, p50):
        # (2 - x) cos(2 pi x) has extrema +2 at 0, about -3/2 near 1/2 and
        # about +1 near 1: of the three, the one at the right end goes
        nodes, residuals = _exchange(lambda x: (2 - x) * x.context.cospi(2 * x), p50)
        assert nodes[0] == 0 and residuals[0] == 2
        assert abs(nodes[1] - mpmath.mpf("0.5")) < mpmath.mpf("0.05") and residuals[1] < -1

    def test_too_few_alternations_take_the_single_point_exchange(self, p50):
        # 1 + x has a single extremum, at the right end; degree 0 needs two,
        # so that extremum replaces the nearest node of the reference (0, 1)
        nodes, residuals = _exchange(lambda x: 1 + x, p50)
        assert nodes == (0, 1) and residuals == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(case=_exchange_cases())
    def test_next_reference_is_k_plus_2_increasing_nodes(self, case, p30):
        # P solved on a strictly increasing reference, g smooth, the grid
        # residuals above minimax's zero floor: by either exchange, the next
        # reference has k+2 strictly increasing nodes
        k, ticks, coefficients, freq = case
        ctx = context(p30)
        a, b = finite_segment(0, 1, p30)

        def fn(x):
            return sum(c * x ** i for i, c in enumerate(coefficients)) + x.context.sin(freq * x)

        g = CachedFunction(fn)
        reference = [ctx.ldexp(t, -_NODE_BITS) for t in ticks]
        poly, _ = _solve_levelled_system(g, reference, a, b, p30)
        grid = chebyshev_grid(a, b, 8 * (k + 2) + 1)
        rs = list(residual_sweep([g(x)._mpf_ for x in grid], poly, grid))
        g_max = max(max(abs(g(x)) for x in grid), 1)
        assume(ctx.make_mpf(largest_magnitude(rs, ctx.prec)[1]) > rounding_floor(p30) * g_max)
        nodes, residuals = _exchange_core(g, poly, grid, rs, reference)
        assert len(nodes) == len(residuals) == k + 2
        assert all(l < r for l, r in zip(nodes, nodes[1:]))

    def test_equal_neighbours_are_both_candidates(self, p50, monkeypatch):
        # g is 1 from grid point 6 to grid point 7 and falls at slope 2 on
        # either side, to about -0.78 at 1: each plateau point has a
        # neighbour of equal magnitude and is still polished
        a, b = finite_segment(0, 1, p50)
        grid = chebyshev_grid(a, b, 33)
        lo, hi = grid[6], grid[7]
        polish, candidates = remez._polish_max, []

        def recording(phi, lo, hi, width_tol, known, prec):
            candidates.append(known[0][0])
            return polish(phi, lo, hi, width_tol, known, prec)

        monkeypatch.setattr(remez, "_polish_max", recording)
        nodes, residuals = _exchange(lambda x: 1 - 2 * (max(lo - x, 0) + max(x - hi, 0)), p50)
        assert candidates == [grid[6]._mpf_, grid[7]._mpf_, grid[32]._mpf_]
        assert residuals[0] == 1 and residuals[1] < 0


def _counted(fn):
    """fn and the list of the points it was called at."""
    calls = []

    def phi(x):
        calls.append(x)
        return fn(x)

    return phi, calls


def _polish(fn, lo, hi, width, points):
    """_polish_max of the mpf function fn on [lo, hi], known at ``points``, in the ambient mp.

    Returns (x, fn(x), the points phi was called at), as mpfs.
    """
    phi, calls = _counted(lambda t: fn(mp.make_mpf(t))._mpf_)
    known = [(t._mpf_, fn(t)._mpf_) for t in points]
    x, v = _polish_max(phi, lo._mpf_, hi._mpf_, width._mpf_, known, mp.prec)
    return mp.make_mpf(x), mp.make_mpf(v), [mp.make_mpf(t) for t in calls]


class TestPolishMax:
    """Brent polishing of one residual extremum on tuples, counted per call of phi."""

    def test_interior_bump_in_few_evaluations(self, p50):
        with ambient(p50):
            centre = mp.sqrt(2) / 3
            bump = lambda x: mp.exp(-20 * (x - centre) ** 2)
            lo, mid, hi = mp.mpf("0.4"), mp.mpf("0.45"), mp.mpf("0.5")
            width = mp.mpf("1e-12")
            x, v, calls = _polish(bump, lo, hi, width, [mid, lo, hi])
            assert abs(x - centre) <= width
            assert v == bump(x)
            # golden-section search needs about 44
            assert len(calls) <= 15

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_falling_end_costs_one_probe(self, p50, side):
        with ambient(p50):
            lo, hi = mp.mpf(0), mp.mpf("0.01")
            end = lo if side == "lo" else hi
            falling = lambda x: mp.exp(-abs(x - end))
            width = mp.mpf("1e-12")
            other = hi if side == "lo" else lo
            x, v, calls = _polish(falling, lo, hi, width, [end, other])
            assert (x, v) == (end, falling(end))
            assert calls == [lo + width if side == "lo" else hi - width]

    def test_narrow_bracket_returns_the_best_known_point_unprobed(self, p50):
        def phi(t):
            raise AssertionError("phi was called")

        with ambient(p50):
            # a bracket of 8e-13, already within width_tol = 1e-12
            lo, width = mp.mpf("0.4"), mp.mpf("1e-12")
            mid, hi = lo + mp.mpf("4e-13"), lo + mp.mpf("8e-13")
            known = [(t._mpf_, mp.mpf(v)._mpf_) for t, v in ((lo, 1), (mid, 3), (hi, 2))]
            x, v = _polish_max(phi, lo._mpf_, hi._mpf_, width._mpf_, known, mp.prec)
        assert (x, v) == known[1]

    def test_bump_next_to_the_end_is_still_found(self, p50):
        with ambient(p50):
            lo, hi = mp.mpf(0), mp.mpf("0.01")
            centre = mp.sqrt(2) / 500
            bump = lambda x: -(x - centre) ** 2
            assert bump(lo) > bump(hi)
            width = mp.mpf("1e-12")
            x, v, calls = _polish(bump, lo, hi, width, [lo, hi])
            assert len(calls) > 1
            assert abs(x - centre) <= width

    def test_never_below_the_best_known_value(self, p30):
        rng = random.Random(2718)
        with ambient(p30):
            for _ in range(200):
                freq, shift = mp.mpf(rng.uniform(1, 300)), mp.mpf(rng.uniform(0, 6))
                wave = lambda x: mp.sin(freq * x + shift)
                lo = mp.mpf(rng.uniform(-1, 1))
                hi = lo + mp.mpf(10) ** rng.uniform(-3, 0)
                inside = max((lo + (hi - lo) * mp.mpf(rng.random()) for _ in range(5)),
                             key=wave)
                points = [inside, lo, hi][rng.choice((0, 1)):]
                x, v, _ = _polish(wave, lo, hi, (hi - lo) * mp.mpf("1e-12"), points)
                assert lo <= x <= hi
                assert v == wave(x)
                assert v >= max(wave(t) for t in points)

    @pytest.mark.parametrize("k", [1, 8])
    def test_polishing_calls_per_extremum(self, p50, k, monkeypatch):
        polish = remez._polish_max
        searches = []

        def counted_polish(phi, lo, hi, width_tol, known, prec):
            phi, calls = _counted(phi)
            result = polish(phi, lo, hi, width_tol, known, prec)
            best = max(known, key=lambda item: mp.make_mpf(item[1]))[0]
            searches.append((best in (lo, hi), len(calls)))
            return result

        monkeypatch.setattr(remez, "_polish_max", counted_polish)
        minimax(mpmath.exp, 0, 1, k, p=p50)
        assert searches
        assert all(n <= (1 if at_end else 12) for at_end, n in searches)


class TestMinimax:
    def test_parabola_oracle(self, p50):
        r = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        assert abs(r.delta_hat - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        assert abs(r.polynomial.coefficients[0] - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")
        for node, want in zip(r.nodes, (-1, 0, 1)):
            assert abs(node - want) < mpmath.mpf("1e-8")
        assert r.lower_bound <= r.delta_hat

    def test_exact_polynomial(self, p50):
        rng = random.Random(4242)
        g = lambda x: 3 * x * x - x + mpmath.mpf("0.25")
        r = minimax(g, 0, 1, 3, p=p50)
        assert r.delta_hat <= mpmath.mpf("1e-45")
        with ambient(p50):
            for _ in range(10):
                x = mp.mpf(rng.random())
                assert abs(r.polynomial.evaluate(x) - g(x)) < mp.mpf("1e-20")

    def test_exp_slope(self, p50):
        r = minimax(mpmath.exp, 0, 1, 1, p=p50)
        mono = r.polynomial.to_monomial()
        with ambient(p50):
            assert abs(mono[1] - (mp.e - 1)) < mp.mpf("1e-10")
            assert abs(r.nodes[1] - mp.log(mp.e - 1)) < mp.mpf("1e-8")

    def test_degree_monotonicity(self, p50):
        for g in (mpmath.exp, mpmath.sin):
            deltas = [minimax(g, 0, 1, k, p=p50).delta_hat for k in range(7)]
            for harder, easier in zip(deltas, deltas[1:]):
                assert easier <= harder

    def test_positive_scaling_equivariance(self, p50):
        c = mpmath.mpf("3.7")
        base = minimax(mpmath.sin, 0, 1, 3, p=p50)
        scaled = minimax(lambda x: c * mpmath.sin(x), 0, 1, 3, p=p50)
        with ambient(p50):
            assert abs(scaled.delta_hat - c * base.delta_hat) <= \
                mp.mpf("1e-20") * scaled.delta_hat
            for sc, bc in zip(scaled.polynomial.coefficients, base.polynomial.coefficients):
                assert abs(sc - c * bc) <= mp.mpf("1e-20") * max(abs(sc), mp.mpf("1e-25"))

    def test_affine_domain_equivariance(self, p50):
        base = minimax(mpmath.exp, 1, 3, 3, p=p50)
        composed = minimax(lambda t: mpmath.exp(2 * t + 1), 0, 1, 3, p=p50)
        with ambient(p50):
            assert abs(base.delta_hat - composed.delta_hat) <= \
                mp.mpf("1e-20") * base.delta_hat

    def test_alternation_and_sandwich(self, p50):
        for g, k in ((mpmath.exp, 2), (mpmath.sin, 4), (mpmath.exp, 5)):
            r = minimax(g, 0, 1, k, p=p50)
            assert len(r.nodes) == k + 2
            assert all(l < h for l, h in zip(r.nodes, r.nodes[1:]))
            residuals = [g(t) - r.polynomial.evaluate(t) for t in r.nodes]
            for prev, cur in zip(residuals, residuals[1:]):
                assert (prev > 0) != (cur > 0)
            assert r.lower_bound <= r.delta_hat
            assert (r.delta_hat - r.lower_bound) / r.delta_hat <= mpmath.mpf("1e-12")

    def test_iteration_budget(self, p50):
        for k in range(1, 7):
            r = minimax(mpmath.exp, 0, 1, k, p=p50)
            assert r.iterations <= 12
            assert len(r.levelled_error_history) == r.iterations

    def test_iteration_cap(self, p50, monkeypatch):
        monkeypatch.setattr(remez, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError,
                           match=r"^no convergence to tol=1e-12 within 1 iterations$") as info:
            minimax(lambda x: x.context.exp(x), 0, 1, 3, p=p50)
        assert len(info.value.history) == 1

    def test_coarse_g_values_refused(self, p50):
        # mpmath.exp computes at the ambient precision; below the run's it
        # would stall Remez, so the run refuses it and names the fix
        with mp.workdps(15):
            with pytest.raises(ConfigurationError, match=r"x\.context"):
                minimax(mpmath.exp, 0, 1, 6, p=p50)
        with mp.workdps(60):
            assert minimax(mpmath.exp, 0, 1, 6, p=p50).delta_hat > 0

    @pytest.mark.parametrize("g", [lambda x: float(x * x), lambda x: float(x)],
                             ids=["x^2", "x"])
    def test_float_g_values_refused(self, g):
        # a float carries 53 bits, as an mpf of a coarser context would: the
        # first returns a delta_hat off in its 17th digit, the second stalls
        with pytest.raises(ConfigurationError,
                           match=r"^g returned a 53-bit value for a 136-bit x; .*x\.context"):
            minimax(g, 0, 1, 1, p=Precision(30))

    def test_tol_validation(self):
        # TOL, 1e-12, lies below 21-digit arithmetic's resolution floor, 1e-11
        exp = lambda x: x.context.exp(x)
        with pytest.raises(ConfigurationError, match=(
                "^tol=1e-12 is below what 21-digit arithmetic can resolve$")):
            minimax(exp, 0, 1, 1, p=Precision(21))
        assert minimax(exp, 0, 1, 1, p=Precision(30)).delta_hat > 0

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_bad_degree_refused(self, degree):
        with pytest.raises(ConfigurationError,
                           match=f"^degree must be an integer of at least 0, got {degree!r}$"):
            minimax(lambda x: x, 0, 1, degree)

    @pytest.mark.parametrize("grid_multiplier", [0, -2, True])
    def test_grid_multiplier_validation(self, grid_multiplier, p50):
        with pytest.raises(ConfigurationError, match="grid_multiplier"):
            minimax(lambda x: x.context.exp(x), 0, 1, 1, p=p50, grid_multiplier=grid_multiplier)


class TestVerifyEquioscillation:
    def test_parabola_passes(self, p50):
        r = minimax(lambda x: x * x, -1, 1, 1, p=p50)
        report = verify_equioscillation(r, p=p50)
        assert report.passed
        residuals = [context(p50).make_mpf(r.residuals[t._mpf_]) for t in r.nodes]
        assert [res > 0 for res in residuals] == [True, False, True]
        for res in residuals:
            assert abs(abs(res) - mpmath.mpf("0.5")) < mpmath.mpf("1e-10")

    def test_exact_polynomial_zero_rule(self, p50):
        g = lambda x: x * x
        r = minimax(g, 0, 1, 2, p=p50)
        report = verify_equioscillation(r, p=p50)
        assert report.passed
        assert "floor" in report.message or "exact" in report.message

    def test_perturbed_node_spread_is_reported_not_gated(self, p50):
        r = minimax(mpmath.exp, 0, 1, 2, p=p50)
        bad_nodes = list(r.nodes)
        bad_nodes[1] = bad_nodes[1] + mpmath.mpf("0.05")
        g = CachedFunction(mpmath.exp)
        bad = MinimaxResult(
            polynomial=r.polynomial, delta_hat=r.delta_hat, nodes=tuple(bad_nodes),
            node_values=tuple(g(t) for t in bad_nodes),
            iterations=r.iterations, levelled_error_history=r.levelled_error_history,
            lower_bound=r.lower_bound,
            residuals=dict(zip((t._mpf_ for t in bad_nodes), residual_sweep(
                [g(t)._mpf_ for t in bad_nodes], r.polynomial, bad_nodes))),
        )
        report = verify_equioscillation(bad, p=p50)
        # the signs still alternate; the shifted node's residual is smaller
        # by about 5 %, and only the spread says so
        assert (report.passed, report.message) == (True, "equioscillation verified")
        assert mpmath.mpf("0.05") < report.spread < mpmath.mpf("0.06")
        assert verify_equioscillation(r, p=p50).spread <= mpmath.mpf(remez.TOL)

    @staticmethod
    def _result(residuals, delta_hat, p):
        """A degree-0 MinimaxResult on [0, 1] with the given node residuals."""
        ctx = context(p)
        a, b = finite_segment(0, 1, p)
        nodes = (a, ctx.mpf("0.5"), b)
        values = [ctx.mpf(r) for r in residuals]
        return MinimaxResult(
            polynomial=Polynomial(coefficients=(ctx.one,), segment=(a, b)),
            delta_hat=ctx.mpf(delta_hat), nodes=nodes, node_values=(ctx.one,) * 3,
            iterations=1, levelled_error_history=(), lower_bound=min(map(abs, values)),
            residuals={t._mpf_: r._mpf_ for t, r in zip(nodes, values)},
        )

    @pytest.mark.parametrize("residuals", [("0.5", "0.5", "-0.5"), ("0.5", "0", "-0.5")])
    def test_signs_that_do_not_alternate_fail(self, residuals, p50):
        report = verify_equioscillation(self._result(residuals, "0.5", p50), p=p50)
        assert not report.passed
        assert report.message == "residual signs do not alternate at node 1"

    def test_floor_rule_fails_on_a_residual_above_the_floor(self, p50):
        # delta_hat is at the arithmetic floor (1e-40 at 50 digits), the
        # middle residual far above it
        result = self._result(("-1e-42", "1e-20", "-1e-42"), "1e-45", p50)
        report = verify_equioscillation(result, p=p50)
        assert not report.passed
        assert report.message == "delta_hat at floor but residual 1 above it"


class TestPolynomial:
    def test_constant_evaluation_exact(self, p50):
        with ambient(p50):
            c = mp.mpf("0.123456789")
            P = Polynomial(coefficients=(c,), segment=(mp.mpf(0), mp.mpf(1)))
            for x in ("0", "0.37", "1"):
                assert P.evaluate(mp.mpf(x)) == c

    def test_monomial_round_trip(self, p50):
        rng = random.Random(1357)
        with ambient(p50):
            coeffs = tuple(mp.mpf(rng.uniform(-2, 2)) for _ in range(6))
            P = Polynomial(coefficients=coeffs, segment=(mp.mpf(-1), mp.mpf(2)))
            mono = P.to_monomial()
            Q = Polynomial.from_monomial(mono, -1, 2)
            for _ in range(10):
                x = mp.mpf(rng.uniform(-1, 2))
                assert abs(P.evaluate(x) - Q.evaluate(x)) < mp.mpf(10) ** (-50 + 12)

    @pytest.mark.parametrize("digits", [30, 50])
    def test_basis_conversions_ignore_ambient_precision(self, digits):
        p = Precision(digits)
        coeffs = ["0.2", "-0.7", "1", "pi/7"]
        bits = []
        for ambient in (15, 60):
            with mp.workdps(ambient):
                P = Polynomial.from_monomial(coeffs, 0, "pi/2", p)
                mono = P.to_monomial(p)
            bits.append([c._mpf_ for c in P.coefficients + P.segment + mono])
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("digits", [30, 50])
    def test_to_monomial_is_correctly_rounded(self, digits):
        # each coefficient is the exact one rounded once to the working precision
        p = Precision(digits)
        prec = context(p).prec
        rng = random.Random(8642 + digits)
        for _ in range(100):
            a = mpmath.ldexp(rng.randint(-2 ** 20, 2 ** 20), -rng.randint(16, 40))
            b = a + mpmath.ldexp(rng.randint(1, 2 ** 20), -rng.randint(16, 24))
            coeffs = tuple(mpmath.ldexp(rng.randint(-2 ** 53, 2 ** 53), -rng.randint(53, 80))
                           for _ in range(rng.randint(1, 8)))
            P = Polynomial(coefficients=coeffs, segment=(a, b))
            got = [c._mpf_ for c in P.to_monomial(p)]
            want = [mpmath.libmp.from_rational(v.numerator, v.denominator, prec,
                                               mpmath.libmp.round_nearest)
                    for v in exact_taylor(P, 0, 1)]
            assert got == want

    @pytest.mark.parametrize("digits", [30, 50])
    def test_double_monomials_survive_a_round_trip(self, digits):
        # the exact Chebyshev coefficients of double-valued monomials on [0, 1]
        # fit in the working precision, so the round trip loses no bit
        p = Precision(digits)
        rng = random.Random(9753 + digits)
        for _ in range(100):
            mono = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 8))]
            back = Polynomial.from_monomial(mono, 0, 1, p).to_monomial(p)
            assert [c._mpf_ for c in back] == [mpmath.mpf(c)._mpf_ for c in mono]

    def test_no_coefficients_refused(self, p50):
        # a degree -1 polynomial would fail later with errors outside IneqproveError
        with pytest.raises(ConfigurationError, match="at least one coefficient"):
            Polynomial.from_monomial([], 0, 1, p50)
        with pytest.raises(ConfigurationError, match="at least one coefficient"):
            Polynomial(coefficients=(), segment=finite_segment(0, 1, p50))

    @pytest.mark.parametrize("coefficients, segment, message", [
        ((1.0, mpmath.mpf("0.5")), (mpmath.mpf(0), mpmath.mpf(1)),
         "a polynomial's coefficient must be a finite mpf, got 1.0"),
        ((mpmath.mpf(1), mpmath.mpf("0.5")), (0, mpmath.mpf(1)),
         "a polynomial's segment end must be a finite mpf, got 0"),
        ((mpmath.mpf(1), mpmath.mpf("0.5")), (mpmath.mpf(1), mpmath.mpf(1)),
         "segment must satisfy a < b"),
        ((mpmath.mpf(1), mpmath.mpf("0.5")), (mpmath.mpf(1), mpmath.mpf(0)),
         "segment must satisfy a < b"),
    ], ids=["float coefficient", "int segment end", "degenerate segment", "reversed segment"])
    def test_non_mpf_fields_refused(self, coefficients, segment, message):
        # evaluate and to_monomial read each field's bits and the segment's
        # context, and divide by b - a, so a float, an int or a segment
        # without a < b is refused where it enters
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            Polynomial(coefficients=coefficients, segment=segment)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_coefficients_refused(self, p50, bad):
        with pytest.raises(ConfigurationError,
                           match=f"^cannot interpret '{bad}' as a real number$"):
            Polynomial.from_monomial(["1", bad], 0, 1, p50)
        # refused where it is built, before evaluate or to_monomial can run
        with pytest.raises(ConfigurationError, match="^" + re.escape(
                f"a polynomial's coefficient must be a finite mpf, got {mpmath.mpf(bad)!r}") + "$"):
            Polynomial(coefficients=(mpmath.mpf(1), mpmath.mpf(bad)),
                       segment=(mpmath.mpf(0), mpmath.mpf(1)))
        P = Polynomial(coefficients=(mpmath.mpf(1), mpmath.mpf(1)),
                       segment=(mpmath.mpf(0), mpmath.mpf(1)))
        with pytest.raises(ConfigurationError, match="^P is evaluated at finite points only$"):
            P.evaluate(mpmath.mpf(bad))
