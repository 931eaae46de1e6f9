"""Positivity certification and the full inequality-proof pipeline.

The pipeline proves f(x) >= 0 on [a, b] (roots allowed at the endpoints) by
one runner walking a fixed table of stages (``_STAGES``):

1. ``endpoint_limits``: the limits alpha, beta of the quotient extension g;
2. ``precondition``: both must be positive; a negative one ends the run
   like any failed gate, and the witness search probes f near that end;
3. ``minimax``: g on the Remez grid, where the first sample at which f is
   confirmed negative ends the run, then from the same samples a degree-k
   minimax polynomial P of g with error estimate delta_hat (Remez exchange);
4. ``equioscillation``: the residuals g - P at the nodes must alternate
   in sign;
5. ``positivity``: P(x) - delta_hat * margin > 0, certified rigorously by
   exact Bernstein subdivision on integers, refining the lowest leaf first;
   the Bernstein coefficients come from one integer matrix per degree;
6. ``residual_check``: |g - P| <= delta_hat * margin on a dense sample grid.

Each stage adds its results to the run or ends it, by failing its gate or
by raising an IneqproveError; the runner alone turns the end into a report,
and lets a ConfigurationError, the caller's fault, propagate.  Cheap and
decisive work comes first.  Step 6 is a sampled check, not a proof, and
delta_hat is a numerical estimate; every report therefore carries a fixed
caveat.  The verdict vocabulary is three-valued: a stage never claims
disproof, only a concrete negative witness does (``_confirmed``).
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

import mpmath
from mpmath import libmp

from .errors import CertificationError, ConfigurationError, IneqproveError, ZeroLimitError
from .expr import Expression, evaluate, parse
from .precision import (
    Precision,
    context,
    decimal_str,
    exact,
    finite_orders,
    finite_segment,
    integer,
    resolution_floor,
    to_mpf,
    witness_floor,
)
from .quotient import (QuotientFunction, endpoint_limits_numeric, endpoint_limits_taylor,
                       probe_points)
from . import remez
from .remez import (
    CachedFunction,
    MinimaxResult,
    Polynomial,
    _BY_VALUE,
    _units,
    chebyshev_table,
    largest_magnitude,
    minimax,
    residual_sweep,
    verify_equioscillation,
)

CAVEAT = (
    "The verdict relies on the Remez error estimate delta_hat being a true "
    "bound for |g - P| over the whole segment at the chosen working "
    "precision; that bound is verified only on a finite sample grid. The "
    "positivity certificate is rigorous for the polynomial side alone."
)

CERTIFICATION_MIN_DIGITS = 30
# the proof's margin on delta: P(x) - delta_hat * MARGIN_FACTOR > 0
MARGIN_FACTOR = "1.000001"
# the certifier's stopping rule (certify_positive)
REL_SLACK, MAX_DEPTH, MAX_SUBINTERVALS = Fraction(1, 100), 47, 200000


@dataclass(frozen=True)
class GridStatistics:
    passed: bool
    max_residual: mpmath.mpf
    max_location: mpmath.mpf
    threshold: mpmath.mpf
    sample_count: int


@dataclass(frozen=True)
class PositivityCertificate:
    """Tiling of the segment with verified positive lower bounds of P - delta*margin."""

    polynomial: Polynomial
    delta: mpmath.mpf
    margin_factor: mpmath.mpf
    subintervals: tuple
    global_min_bound: mpmath.mpf


@dataclass(frozen=True)
class ProofSettings:
    precision: Precision = Precision()
    grid_multiplier: int = remez.GRID_MULTIPLIER

    def __post_init__(self):
        context(self.precision)
        integer(self.precision.decimal_digits, "certified precision in decimal digits",
                CERTIFICATION_MIN_DIGITS)
        # from 2 on, the residual grid, twice as dense as Remez's, has the
        # 4*(k+2) points that residual_check asks for
        integer(self.grid_multiplier, "grid_multiplier", 2)


@dataclass(frozen=True)
class ProofReport:
    """The proof's result; ``report_to_json`` renders its fields in this order."""

    verdict: str
    alpha: object = None
    beta: object = None
    n: object = None
    m: object = None
    degree: int = None
    limit_method: object = None
    delta_hat: object = None
    lower_bound: object = None
    nodes: object = None
    polynomial: object = None
    global_min_bound: object = None
    caveat: str = CAVEAT
    settings: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def residual_check(g, polynomial: Polynomial, delta, grid_size: int,
                   p: Precision = Precision(), extra_points=(), known=None) -> GridStatistics:
    """Sampled check of |g - P| <= delta * MARGIN_FACTOR on ``grid_size`` Chebyshev points.

    This is evidence, not proof; the pipeline records it and the caveat says
    so.  The slack is the certificate's margin: the proof needs |g - P| no
    larger than the delta * MARGIN_FACTOR that P clears.  ``extra_points``
    lets callers include the equioscillation nodes.  Residuals are libmp
    tuples at the precision of P's segment, p's for the P that ``minimax``
    returns.  ``known`` may map x._mpf_ to g(x) - P(x), as
    ``MinimaxResult.residuals`` does for its polynomial; every sample found
    there takes that residual, and only the others are computed.
    """
    integer(grid_size, "grid_size", 4 * (polynomial.degree + 2))
    g = g if isinstance(g, CachedFunction) else CachedFunction(g)
    segment = polynomial.segment
    grid, units = chebyshev_table(*(to_mpf(v, p) for v in segment), grid_size)
    pts = grid + tuple(to_mpf(x, p) for x in extra_points)
    # u as P's segment rounds it: the table's where the table has P's
    # precision, and computed for the points after them
    if grid[0].context.prec != segment[0].context.prec:
        units = ()
    units += tuple(_units(segment, pts[len(units):]))
    known = known or {}
    fresh = [(x, u) for x, u in zip(pts, units) if x._mpf_ not in known]
    fresh = residual_sweep((g(x)._mpf_ for x, _ in fresh), polynomial, None, [u for _, u in fresh])
    residuals = (known.get(x._mpf_) or next(fresh) for x in pts)
    # the first point of largest residual
    top, max_res = largest_magnitude(residuals, segment[0].context.prec)
    max_res = context(p).make_mpf(max_res)
    threshold = to_mpf(delta, p) * to_mpf(MARGIN_FACTOR, p)
    return GridStatistics(
        passed=bool(max_res <= threshold),
        max_residual=+max_res,
        max_location=+pts[top],
        threshold=+threshold,
        sample_count=len(pts),
    )


def _bernstein(cheb):
    """N_k = sum_j M_n[k][j] cheb[j]: sum_j cheb[j] T_j(2t - 1) == sum_k N_k B_k(t) / n!."""
    return [sum(map(mul, row, cheb)) for row in _bernstein_matrix(len(cheb) - 1)]


@lru_cache(maxsize=64)
def _bernstein_matrix(n):
    """M_n, the Chebyshev-to-Bernstein map of degree n on integers; memoized per degree.

    The basis table gives T_j(2t - 1) in powers of t, and n! clears the
    denominators of the power-to-Bernstein map b_k = sum_i C(k, i) / C(n, i) a_i,
    so M_n[k][j] = sum_i k! (n - i)! / (k - i)! table[j][i], exactly.
    """
    fact, table = [math.factorial(i) for i in range(n + 1)], remez._shifted_chebyshev(n)
    return tuple(tuple(sum(row[i] * (fact[k] * fact[n - i] // fact[k - i])
                           for i in range(min(j, k) + 1))
                       for j, row in enumerate(table))
                 for k in range(n + 1))


def _split(coeffs):
    """De Casteljau at t = 1/2 on integers: both halves, scaled by 2**n."""
    n = len(coeffs) - 1
    left, right = [0] * (n + 1), [0] * (n + 1)
    row = coeffs
    for r in range(n + 1):
        if r:
            row = [x + y for x, y in zip(row, row[1:])]
        left[r] = row[0] << (n - r)
        right[n - r] = row[-1] << (n - r)
    return left, right


def certify_positive(polynomial: Polynomial, delta, margin_factor,
                     p: Precision = Precision()) -> PositivityCertificate:
    """Rigorous proof that P(x) - delta*margin_factor > 0 on the segment.

    Exact Bernstein branch and bound.  The Chebyshev coefficients, delta and
    margin_factor are exact dyadic rationals; P - delta*margin is put in
    Bernstein form in t = (x - a)/(b - a) on Python integers, and the leaf
    with the lowest lower bound (its minimum Bernstein coefficient) is split
    at its midpoint by de Casteljau, until that bound L is positive and
    within REL_SLACK * L of the least exact value of P - delta*margin
    seen so far (or the leaf is MAX_DEPTH halvings deep).  Each leaf's
    bound is rounded toward -inf, so ``global_min_bound`` is a true lower
    bound for P - delta*margin on [a, b], and close to its minimum.

    Raises CertificationError when a segment end or a split point has
    P - delta*margin <= 0, when the lowest leaf reaches MAX_DEPTH without
    a positive bound, or when the leaves would exceed MAX_SUBINTERVALS.
    That signals delta too large for this degree, not a disproof.
    """
    ctx = context(p)
    integer(p.decimal_digits, "certified precision in decimal digits", CERTIFICATION_MIN_DIGITS)
    dv = to_mpf(delta, p)
    mv = to_mpf(margin_factor, p)
    coefficients = [to_mpf(c, p) for c in polynomial.coefficients]
    a, b = (to_mpf(v, p) for v in polynomial.segment)
    if dv._mpf_[0]:  # the sign bit: to_mpf gives finite values only
        raise ConfigurationError("delta must be nonnegative")
    if not (libmp.mpf_gt(mv._mpf_, libmp.fone) and libmp.mpf_le(mv._mpf_, libmp.ftwo)):
        raise ConfigurationError("margin_factor must lie in (1, 2]")

    # every value is an integer times 2**low, and leaves at depth d
    # scale their coefficients by 2**(n*d): compare at the deepest scale
    n = len(coefficients) - 1
    product = ctx.make_mpf(libmp.mpf_mul(dv._mpf_, mv._mpf_))  # delta*margin, unrounded
    (*cheb, margin), low = exact(coefficients + [product])
    fact = math.factorial(n)
    root = [v - margin * fact for v in _bernstein(cheb)]
    slack_num, slack_den = REL_SLACK.numerator, REL_SLACK.denominator

    def key(value, depth):
        return value << (n * (MAX_DEPTH - depth))

    def floor_mpf(value, depth):
        raw = libmp.from_rational(value, fact, ctx.prec, libmp.round_floor)
        return ctx.make_mpf(libmp.mpf_shift(raw, low - n * depth))

    def point(value, depth, x):
        # an exact value of P - delta*margin
        if value <= 0:
            bound = floor_mpf(value, depth)
            raise CertificationError(
                f"positivity not certified: P - delta*margin = "
                f"{mpmath.nstr(bound, 8)} at x = {mpmath.nstr(x, 17)}; "
                "the error bound is too large for this degree",
                left=+x, right=+x, bound=bound,
            )
        return key(value, depth)

    least = min(point(root[0], 0, a), point(root[-1], 0, b))
    order = itertools.count()
    # (scaled lower bound, creation order, depth, coefficients, lo, hi)
    heap = [(key(min(root), 0), next(order), 0, root, a, b)]
    while True:
        bound, _, depth, coeffs, lo, hi = heap[0]
        if bound > 0 and (depth >= MAX_DEPTH
                          or (least - bound) * slack_den <= slack_num * bound):
            break
        if depth >= MAX_DEPTH:
            lower = floor_mpf(min(coeffs), depth)
            raise CertificationError(
                "positivity not certified: subinterval "
                f"[{mpmath.nstr(lo, 17)}, {mpmath.nstr(hi, 17)}] reached the "
                f"width floor with lower bound {mpmath.nstr(lower, 8)}; "
                "the error bound is too large for this degree",
                left=+lo, right=+hi, bound=lower,
            )
        if len(heap) >= MAX_SUBINTERVALS:
            raise CertificationError(
                f"positivity not certified within {MAX_SUBINTERVALS} "
                "subintervals; the enclosure cannot separate P from "
                "delta at this degree",
                left=+lo, right=+hi, bound=floor_mpf(min(coeffs), depth),
            )
        heapq.heappop(heap)
        left, right = _split(coeffs)
        mid = (lo + hi) / 2
        least = min(least, point(left[-1], depth + 1, mid))
        for child, ends in ((left, (lo, mid)), (right, (mid, hi))):
            heapq.heappush(heap, (key(min(child), depth + 1), next(order),
                                  depth + 1, child, *ends))
    # the leaves tile [a, b], so their left ends order them
    heap.sort(key=lambda leaf: leaf[4])
    leaves = tuple((lo, hi, floor_mpf(min(coeffs), depth))
                   for _, _, depth, coeffs, lo, hi in heap)
    return PositivityCertificate(
        polynomial=polynomial,
        delta=+dv,
        margin_factor=+mv,
        subintervals=leaves,
        global_min_bound=min(bound for _, _, bound in leaves),
    )


def _settings_echo(f_source, a, b, n, m, k, s: ProofSettings, residual_grid_size):
    """The report's settings: the inputs, the settings and the constants the stages read."""
    return {"function": f_source, "interval": [a, b], "n": n, "m": m, "degree": k,
            "precision_digits": s.precision.decimal_digits, "tol": remez.TOL,
            "grid_multiplier": s.grid_multiplier, "residual_grid_size": residual_grid_size,
            "margin_factor": MARGIN_FACTOR, "max_iterations": remez.MAX_ITERATIONS}


def _confirmed(run, candidates):
    """Diagnostics entry of the first candidate where f is clearly negative, or None.

    The one way to disprove: f at x, not g, must lie below -``run.floor``.
    Candidates are read lazily, no further than the witness.
    """
    for x in candidates:
        try:
            fv = evaluate(run.f, x, run.p)
        except IneqproveError:
            continue
        if fv < -run.floor:
            return {"x": x, "f_value": fv}
    return None


def _disproof_witness(run):
    """The witness of a run that ends after the sweep of the Remez grid, or None.

    The candidates: the first cached sample of smallest g (libmp tuples
    compared) if below -floor, then at each end whose limit is negative the
    numeric route's ``probe_points``, nearest the end first.
    """
    samples = () if run.g is None else run.g.values.values()
    negative = [(x, v._mpf_) for x, v in samples if v._mpf_[0]]
    worst_x, worst_g = min(negative, key=_BY_VALUE, default=(None, libmp.fzero))
    candidates = [worst_x] if libmp.mpf_lt(worst_g, libmp.mpf_neg(run.floor._mpf_)) else []
    alpha, beta = run.fields.get("alpha", 0), run.fields.get("beta", 0)
    if min(alpha, beta) < 0:
        candidates += [x for limit, points in zip((alpha, beta), probe_points(*run.segment, run.p))
                       if limit < 0 for x in reversed(points)]
    return _confirmed(run, candidates)


@dataclass
class _Run:
    """One proof: its inputs, the report fields so far, and g and minimax once they exist."""

    f: Expression
    segment: tuple  # (a, b), as finite_segment rounds them
    settings: ProofSettings
    method: str  # the limit route, "taylor" or "numeric"
    residual_grid_size: int
    fields: dict
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=lambda: dict.fromkeys(
        ("g_evaluations", "remez_iterations", "residual_samples",
         "certificate_subintervals"), 0))
    g: CachedFunction = None
    minimax: MinimaxResult = None

    @property
    def p(self) -> Precision:
        return self.settings.precision

    @property
    def limit_inputs(self):  # (f, a, b, n, m, p)
        return (self.f, *self.segment, self.fields["n"], self.fields["m"], self.p)

    @property
    def floor(self):  # the witness floor times the largest of 1, |alpha| and |beta|
        limits = (abs(self.fields.get(end, 0)) for end in ("alpha", "beta"))
        return witness_floor(self.p) * max(context(self.p).mpf(1), *limits)


class _Stop(NamedTuple):
    """A failed gate: how a stage ends the run, with the diagnostics entries it adds."""

    message: str
    extra: tuple = ()
    witness: dict = None  # a witness of disproof that the stage found itself


# Stages look up the routines they call (minimax, residual_check, ...) as
# module globals at call time, so a wrapper bound to those names sees them.

def _endpoint_limits(run: _Run):
    route = endpoint_limits_taylor if run.method == "taylor" else endpoint_limits_numeric
    alpha, beta = route(*run.limit_inputs)
    run.fields.update(alpha=alpha, beta=beta, limit_method=run.method)


def _precondition(run: _Run):
    # a limit at zero means misconfigured n, m: its end is named "a" or "b"
    # as the limit routes name it
    alpha, beta = run.fields["alpha"], run.fields["beta"]
    limits, floor = (("alpha", "a", alpha), ("beta", "b", beta)), resolution_floor(run.p)
    for name, end, v in limits:
        if abs(v) <= floor:
            raise ZeroLimitError(
                f"endpoint limit {name} is zero at working precision; "
                "n, m are misconfigured (limit premise violated)",
                endpoint=end,
            )
    for name, _, v in limits:
        if v < 0:
            return _Stop(f"endpoint limit {name} is negative", (("negative_limit", name),))
    f, a, b, n, m, p = run.limit_inputs
    run.g = CachedFunction(QuotientFunction(f, a, b, n, m, alpha, beta, p).evaluate)


def _minimax(run: _Run):
    # g on the Remez grid in the order minimax takes it, so minimax finds
    # it cached: a negative sample (its sign bit) that f confirms ends the run
    k, multiplier = run.fields["degree"], run.settings.grid_multiplier
    grid = chebyshev_table(*run.segment, multiplier * (k + 2) + 1)[0]
    if witness := _confirmed(run, (x for x in grid if run.g(x)._mpf_[0])):
        return _Stop("g is negative at a sample of the Remez grid", witness=witness)
    mr = minimax(run.g, *run.segment, k, p=run.p, grid_multiplier=multiplier)
    run.minimax = mr
    run.timings["remez_iterations"] = mr.iterations
    run.fields.update(delta_hat=mr.delta_hat, lower_bound=mr.lower_bound, nodes=mr.nodes,
                      polynomial=mr.polynomial)


def _equioscillation(run: _Run):
    eq = verify_equioscillation(run.minimax, p=run.p)
    run.diagnostics["equioscillation"] = asdict(eq)
    if not eq.passed:
        return _Stop(eq.message)


def _residual_check(run: _Run):
    mr = run.minimax
    stats = residual_check(run.g, mr.polynomial, mr.delta_hat, run.residual_grid_size,
                           run.p, extra_points=mr.nodes, known=mr.residuals)
    run.timings["residual_samples"] = stats.sample_count
    run.diagnostics["residual_check"] = {
        "passed": stats.passed, "max_residual": stats.max_residual,
        "max_location": stats.max_location, "threshold": stats.threshold}
    if not stats.passed:
        return _Stop("sampled residual exceeds delta_hat; the Remez result "
                     "does not bound g on this grid")


def _positivity(run: _Run):
    mr = run.minimax
    cert = certify_positive(mr.polynomial, mr.delta_hat, MARGIN_FACTOR, run.p)
    run.timings["certificate_subintervals"] = len(cert.subintervals)
    run.fields["global_min_bound"] = cert.global_min_bound


def _numeric_cross_check(exc, run: _Run):
    """Diagnostics entry of the numeric limit route where a Taylor-route run ends.

    The Taylor route ends a run on a wrong order, at endpoint_limits or as a
    zero limit at precondition; the numeric route then records its limits,
    or its failure by class and message, which carries the observed-exponent
    hint and the endpoint.  A numeric-route run adds nothing.
    """
    if run.method != "taylor":
        return ()
    try:
        alpha, beta = endpoint_limits_numeric(*run.limit_inputs)
    except IneqproveError as failure:
        entry = {"failed": f"{type(failure).__name__}: {failure}"}
    else:
        entry = {"alpha_numeric": alpha, "beta_numeric": beta}
    return (("limit_cross_check", entry),)


def _failing_subinterval(exc: IneqproveError, run: _Run):
    """Diagnostics entry of the leaf or point where a CertificationError found no proof."""
    if not isinstance(exc, CertificationError):
        return ()
    return (("failing_subinterval", {key: getattr(exc, key)
                                     for key in ("left", "right", "bound")}),)


# (report stage name, stage, the diagnostics entries that an IneqproveError
#  raised by the stage adds to an inconclusive report)
_STAGES = (
    ("endpoint_limits", _endpoint_limits, _numeric_cross_check),
    ("precondition", _precondition, _numeric_cross_check),
    ("minimax", _minimax, None),
    ("equioscillation", _equioscillation, None),
    ("positivity", _positivity, _failing_subinterval),
    ("residual_check", _residual_check, None),
)


def _run_stages(run: _Run) -> ProofReport:
    """Run the stages in order and build the report where the run ends.

    A stage ends the run by failing its gate or by raising any
    IneqproveError but a ConfigurationError, which is the caller's and
    propagates.  The report keeps the stage's message: the gate's, or
    "<Error>: <text>".  The run is disproven by a witness that the stage
    hands over or ``_disproof_witness`` finds, after the gate's own entries;
    otherwise it is inconclusive, and a raised error adds its stage's details.
    """
    stage, verdict, message, extra = "complete", "proven", "all stages passed", ()
    for name, step, details in _STAGES:
        failure = None
        try:
            stop = step(run)
        except IneqproveError as exc:
            if isinstance(exc, ConfigurationError):
                raise
            failure, stop = exc, _Stop(f"{type(exc).__name__}: {exc}")
        if stop is None:
            continue
        stage, verdict, (message, extra, witness) = name, "inconclusive", stop
        witness = witness or _disproof_witness(run)
        if witness is not None:
            verdict, extra = "disproven", extra + (("witness", witness),)
        elif failure is not None and details:
            extra = details(failure, run)
        break
    if run.g is not None:
        run.timings["g_evaluations"] = run.g.calls
    run.diagnostics.update(stage=stage, message=message)
    run.diagnostics.update(extra)
    return ProofReport(verdict=verdict, timings=run.timings,
                       diagnostics=run.diagnostics, **run.fields)


def prove_inequality(f, a, b, n, m, k: int,
                     settings: ProofSettings = None) -> ProofReport:
    """Run the full pipeline and return a ProofReport.

    ``f`` may be an Expression or source text.  A stage that fails, the
    sign precondition included, ends the run 'inconclusive' and names the
    stage; only a concrete point of negative f (``_disproof_witness``)
    makes it 'disproven'.  A ConfigurationError, raised before the stages
    or by one of them, propagates: the inputs or settings are bad.
    """
    s = ProofSettings() if settings is None else settings
    if not isinstance(s, ProofSettings):
        raise ConfigurationError(f"settings must be a ProofSettings, got {settings!r}")
    p = s.precision
    if isinstance(f, str):
        f = parse(f)
    elif not isinstance(f, Expression):
        raise ConfigurationError(f"f must be text or an Expression, got {f!r}")
    integer(k, "degree", 0)
    av, bv = finite_segment(a, b, p)
    nv, mv = finite_orders(n, m, p)
    residual_grid_size = 2 * s.grid_multiplier * (k + 2) + 1
    echo = _settings_echo(f.source_text, av, bv, nv, mv, k, s, residual_grid_size)
    fields = dict(n=nv, m=mv, degree=k, settings=echo)
    # the Taylor route needs integer orders
    method = "taylor" if nv == int(nv) and mv == int(mv) else "numeric"
    return _run_stages(_Run(f, (av, bv), s, method, residual_grid_size, fields))


def report_to_json(report: ProofReport) -> str:
    """Serialize a ProofReport's fields in order, at the precision of its settings.

    The polynomial goes under ``polynomial_coefficients``; ``to_json``
    renders the numbers, so identical runs produce byte-identical output.
    """
    doc = {("polynomial_coefficients" if f.name == "polynomial" else f.name):
           getattr(report, f.name) for f in fields(report)}
    return to_json(doc, Precision(report.settings["precision_digits"]))


def to_json(doc: dict, p: Precision) -> str:
    """doc as indented JSON: an mpf by ``decimal_str`` at p, a Polynomial by its coefficients."""
    def render(value):
        return value.coefficients if isinstance(value, Polynomial) else decimal_str(value, p)

    return json.dumps(doc, indent=2, ensure_ascii=True, default=render)
