"""Brute-force oracles and the exhaustive residue/case analysis.

Everything here double-checks the bundle/quotient pipeline from the outside:

* residue classes of h with 56 | h(h-1), found by raw scan and independently
  by a Chinese-remainder construction;
* the four residue cases h = 56k + {0, 1, 8, 49}, whose mu terms are checked
  against their stated ``constant + k/2`` congruences for every k in range,
  the constants held as ints at scale 112 and 32;
* a theorem sweep that re-evaluates mu(M_h/tau_h) straight from the closed
  formula, sharing no code with the quotient assembly it is meant to catch
  lying: in plain fraction arithmetic (:func:`direct_mu_set`) for
  :func:`brute_force_theorem`, and in integers at scale 224 for the rows of
  the oracle-vs-pipeline sweep, where the quotient kernel works at scale 1792.

That sweep has one engine, :func:`_map_spans`.  It cuts the range into
spans as the pure :func:`_plan` decides before any fork, decides them in
process, alone or together with children it forks for the call, which
stream their finished spans back through a pipe each, and hands each
span's result out in h order as soon as it is decided.
A span is decided by :func:`_verify_chunk`, one loop that per admissible h
calls the oracle and the kernel once each, and the kernel its closed form
and p1 once each.  It gives the span's row and failure counts and its runs:
each run is one outcome (verdict, pass, the oracle's value set as its sorted
pair at scale 224) and the consecutive h that share it, so a span with no
fault is one run; the outcome is worked out again only where the oracle's or
the kernel's answer changes from one h to the next.  The oracle's pair, the
closed form and the assembly are each an integer polynomial taken mod 224 or
1792, so each is looked up by its residue in a table of 224 or 1792 slots,
each filled on first use; the calls that read h, the comparisons and the
verdict still run per h.  The admissible h are stepped as h = 56k + r, with
56 | r(r-1) checked once per residue r.
:func:`verify_range` expands the runs into :class:`VerifyRow` objects; the
``verify`` command renders each run's rows from its outcome and its ends.
"""

from __future__ import annotations

import enum
import functools
import os
from collections.abc import Callable, Iterator

from ._record import Record
from .bundles import DerivationMismatch
from .quotient import MU_SCALE, DichotomyViolationError, _mu_quotient_scaled
from .qz import AmbiguousResidue, _scaled_set, reduce_mod_z

_SCAN_LIMIT = 10**6

#: mu value set every admissible quotient must hit, {1/32, 31/32}, stated
#: once, as the oracle's sorted pair at scale 224, the form in which the
#: checks compare it; ``qz._scaled_set(_TARGET, 224)`` gives the value set.
#: Spelled out here rather than taken from ``quotient.MU_RP7`` on purpose: the
#: sweep checks the pipeline against the theorem, and a target taken from the
#: pipeline would let one wrong constant pass on both sides.
_TARGET = (7, 217)


class EmptyRangeError(ValueError):
    """A scan range turned out empty."""


class CoverageError(RuntimeError):
    """A check decided fewer classes of h than its range reaches."""


class ResidueSolution(Record):
    """All residues r in [0, modulus) with r(r-1) = 0 mod 56."""

    __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]) -> None:
        self._set(modulus, residues)


def enumerate_residues(modulus: int) -> ResidueSolution:
    """Exhaustive scan for r(r-1) = 0 mod 56 over [0, modulus)."""
    if not 1 <= modulus <= _SCAN_LIMIT:
        raise ValueError(f"modulus must be in [1, {_SCAN_LIMIT}], got {modulus}")
    hits = tuple(r for r in range(modulus) if r * (r - 1) % 56 == 0)
    return ResidueSolution(modulus, hits)


def residues_by_crt(modulus: int) -> ResidueSolution:
    """Independent construction of the same residues via 56 = 8 * 7.

    r(r-1) = 0 mod 56 splits into r = 0 or 1 mod 8 and r = 0 or 1 mod 7
    (consecutive integers are coprime, and 7 is prime).  The four base
    residues mod 56 come out of the Chinese remainder theorem and are then
    lifted period by period; only multiples of 56 make sense here.
    """
    if modulus < 1 or modulus % 56 != 0:
        raise ValueError(f"CRT construction needs a positive multiple of 56, got {modulus}")
    base = sorted(_crt_pair(a, 8, b, 7) for a in (0, 1) for b in (0, 1))
    lifted = tuple(
        r + 56 * t for t in range(modulus // 56) for r in base
    )
    return ResidueSolution(modulus, tuple(sorted(lifted)))


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 mod m1, x = r2 mod m2 for coprime m1, m2.

    ``pow`` raises ValueError when m1 has no inverse mod m2, i.e. when the
    moduli are not coprime.
    """
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


@enum.unique
class Case(enum.Enum):
    """The four admissible residue classes of h mod 56."""

    I = 0
    II = 1
    III = 8
    IV = 49

    @property
    def h_residue(self) -> int:
        return self.value


#: The stated congruence constants per case, h(h-1)/112 = quad + k/2 and
#: (2h-1)/32 = linear + k/2, both mod 1, for h = 56k + residue, held on their
#: grids as the ints (112 * quad, 32 * linear): Case III's are 1/2 and
#: -1/32 + 1/2 = 15/32.
_CASE_CONSTANTS = {Case.I: (0, -1), Case.II: (0, 1), Case.III: (56, 15), Case.IV: (0, 1)}


#: Period in h of every check in :func:`check_case`.  Each check is an
#: integer polynomial in h taken mod 112, 32 or 224, all divisors of 224, and
#: P(h + m) = P(h) mod m for any integer polynomial P (every power of h + m
#: expands to h^i plus multiples of m; Polya 1915).  With h = 56k + residue,
#: k + 4 moves h by 224.  In check (a), h(h-1) moves by 224(2h + 223) and
#: 56k by 224, both 0 mod 112; in check (b), 2h moves by 448 and 16k by 64,
#: both 0 mod 32; check (c) reads the oracle's pair mod 224.  So k and
#: k + 4 get the same verdict, whatever integer constants quad_112 and
#: linear_32 are and whatever the oracle, as long as it depends on h mod 224
#: only.  This is the general period of the checks, not their true one, so
#: a wrong constant is still caught at exactly the k it breaks.
_CASE_PERIOD = 224

#: The modulus of h that every check in :func:`check_case` reads: 112, 32 and
#: 224 all divide it.  Stated apart from ``_CASE_PERIOD``, so that a period
#: too short to reach every class of h mod 224 is caught, not trusted.
_CASE_MODULUS = 224


class CaseReport(Record):
    """Outcome of checking one case's congruences over a k-interval.

    The two half-terms are the functions ``quad_constant + k/2`` and
    ``linear_constant + k/2`` (mod 1) that the quadratic and linear mu terms
    must equal; those constants and ``h_residue`` are read from ``case``.
    ``period_failures`` holds the failing k of the range's first period (its
    first ``_CASE_PERIOD // 56`` k), each standing for every k0 + 4t in
    range; ``matches``, the conjunction over the whole range, is derived
    from them.
    """

    __slots__ = ("case", "k_min", "k_max", "period_failures")

    def __init__(self, case: Case, k_min: int, k_max: int,
                 period_failures: tuple[int, ...] = ()) -> None:
        self._set(case, k_min, k_max, period_failures)

    @property
    def h_residue(self) -> int:
        return self.case.value

    @property
    def quad_constant(self) -> Fraction:
        import fractions

        return fractions.Fraction(_CASE_CONSTANTS[self.case][0], 112)

    @property
    def linear_constant(self) -> Fraction:
        import fractions

        return fractions.Fraction(_CASE_CONSTANTS[self.case][1], 32)

    @property
    def matches(self) -> bool:
        return not self.period_failures


def check_case(case: Case, k_min: int, k_max: int) -> CaseReport:
    """Verify one case's stated congruences for every k in [k_min, k_max].

    Checks, for h = 56k + residue: (a) h(h-1)/112 = quad + k/2 mod 1,
    (b) (2h-1)/32 = linear + k/2 mod 1, and (c) that the two assemble to the
    value set {1/32, 31/32}.

    The congruences are decided in exact integer arithmetic after clearing
    denominators (112, 32, and their lcm 224), with the constants as
    ``_CASE_CONSTANTS`` holds them, quad_112 = 112*quad and
    linear_32 = 32*linear: (a) becomes h(h-1) - quad_112 - 56k = 0 mod 112,
    (b) becomes (2h-1) - linear_32 - 16k = 0 mod 32, and (c) asks the
    sweep's oracle :func:`_direct_mu_pair` for the value set at scale 224
    and compares it with the sweep's target, ``_TARGET``.  A constant off its
    1/112 or 1/32 grid has no such int; put in as a non-integer
    ``Fraction``, it is never 0 mod 112 or 32 there, so every k of its case
    fails.

    Each of these is an integer polynomial in h taken mod a divisor of 224,
    so whether k fails depends only on h mod 224, that is on k mod 4 (see
    ``_CASE_PERIOD``).  Every k in the range is still decided: the first
    ``_CASE_PERIOD // 56`` k of the range (one period of h) are tested k by
    k, and each failing k0 there stands for every k0 + 4t in range.  The
    report keeps only those k0, so any k-range costs the same, four oracle
    calls at most, whether the case matches or fails.

    The k it decides must take h through every class mod ``_CASE_MODULUS``
    (224) that [k_min, k_max] reaches, min(k_max - k_min + 1, 4) of them;
    a shorter period leaves some undecided and raises :class:`CoverageError`
    naming them.
    """
    if k_min > k_max:
        raise EmptyRangeError(f"empty k-range [{k_min}, {k_max}]")
    quad_112, linear_32 = _CASE_CONSTANTS[case]
    res = case.h_residue
    decided = range(k_min, min(k_max, k_min + _CASE_PERIOD // 56 - 1) + 1)
    reached = range(k_min, min(k_max, k_min + _CASE_MODULUS // 56 - 1) + 1)
    missing = sorted({(56 * k + res) % _CASE_MODULUS for k in reached}
                     - {(56 * k + res) % _CASE_MODULUS for k in decided})
    if missing:
        raise CoverageError(f"case {case.name} over k in [{k_min}, {k_max}] left "
                            f"h = {', '.join(map(str, missing))} mod {_CASE_MODULUS} undecided")
    period_failures = []
    for k in decided:
        h = 56 * k + res
        ok = (
            (h * (h - 1) - quad_112 - 56 * k) % 112 == 0
            and (2 * h - 1 - linear_32 - 16 * k) % 32 == 0
            and _direct_mu_pair(h) == _TARGET
        )
        if not ok:
            period_failures.append(k)
    return CaseReport(case, k_min, k_max, tuple(period_failures))


def direct_mu_set(h: int) -> AmbiguousResidue:
    """mu(M_h/tau_h) evaluated raw from the closed formula, both signs.

    This is the oracle: plain fraction arithmetic and reduction mod 1, no
    characteristic-class plumbing, no shared code with the quotient module.
    """
    import fractions

    base = fractions.Fraction(h * (h - 1), 112)
    shift = fractions.Fraction(2 * h - 1, 32)
    return AmbiguousResidue.of(
        reduce_mod_z(base + shift), reduce_mod_z(base - shift)
    )


class TheoremSweep(Record):
    """Counts from a brute-force sweep; failures carry the offending h.

    ``failed`` is counted from ``failures``.
    """

    __slots__ = ("h_min", "h_max", "checked", "failures")

    def __init__(self, h_min: int, h_max: int, checked: int,
                 failures: tuple[int, ...] = ()) -> None:
        self._set(h_min, h_max, checked, failures)

    @property
    def failed(self) -> int:
        return len(self.failures)


def brute_force_theorem(h_min: int, h_max: int) -> TheoremSweep:
    """Check mu(M_h/tau_h) = {1/32, 31/32} for every admissible h in range.

    The admissible h are stepped as h = 56k + r by :func:`_admissible`;
    failures are collected, never raised, so a full report always comes back.
    Raises :class:`EmptyRangeError` when h_min > h_max.
    """
    if h_min > h_max:
        raise EmptyRangeError(f"empty h-range [{h_min}, {h_max}]")
    target = _scaled_set(_TARGET, 224)
    checked = 0
    failures = []
    for h in _admissible(h_min, h_max):
        checked += 1
        if direct_mu_set(h) != target:
            failures.append(h)
    return TheoremSweep(h_min, h_max, checked, tuple(failures))


class VerifyRow(Record):
    """One admissible h: oracle mu set, pipeline verdict, agreement flag."""

    __slots__ = ("h", "mu_set", "verdict", "passed")

    def __init__(self, h: int, mu_set: AmbiguousResidue, verdict: str, passed: bool) -> None:
        self._set(h, mu_set, verdict, passed)


#: A run of a sweep span: ((verdict, passed, (a, b)), hs), the outcome that
#: the rows of the consecutive admissible h in hs share, (a, b) the oracle's
#: value set {a/224, b/224}.  The outcome holds strs, bools and ints only, so
#: it is hashable: ``cli._render_runs`` keys the text it renders on it.
_Run = tuple[tuple[str, bool, tuple[int, int]], list[int]]


def verify_range(h_min: int, h_max: int) -> tuple[VerifyRow, ...]:
    """Oracle-vs-pipeline sweep over every admissible h in [h_min, h_max].

    Each row passes when the oracle value set is {1/32, 31/32}, the
    classification pipeline agrees on the set, and its verdict is RP7.  A
    pipeline fault at one h fails that row (verdict ``derivation_mismatch``
    or ``dichotomy_violation``) and the sweep goes on.  The rows, in h
    order, expand the runs of :func:`_verify_chunk` for each span of
    :func:`_map_spans`, decided in this process, and share one
    :class:`AmbiguousResidue` per value set.  Raises :class:`EmptyRangeError`
    when h_min > h_max.
    """
    expand = functools.cache(_scaled_set)
    return tuple(
        VerifyRow(h, expand(mu, 224), verdict, passed)
        for _, _, runs in _map_spans(_verify_chunk, h_min, h_max)
        for (verdict, passed, mu), hs in runs
        for h in hs
    )


#: Most h in one span of a sweep: 512 periods of 56, about 2k rows.
_SPAN_WIDTH = 56 * 512


def _plan(h_min: int, h_max: int, workers: int | None, cpus: int) -> tuple[int, range]:
    """How a sweep over [h_min, h_max] is cut: its part count and span starts.

    The parts are ``workers`` capped at ``cpus`` and at least 1.  The starts
    are a ``range`` whose ``step`` is the span width: each part gets the same
    number of spans, give or take one, all of one width up to ``_SPAN_WIDTH``
    but the last (narrower by less than the span count), so the parts finish
    together.  A range of fewer h than parts has one span per h, and as many
    parts as spans.  Pure: it reads no OS state and forks nothing.  Raises
    :class:`EmptyRangeError` when h_min > h_max.
    """
    if h_min > h_max:
        raise EmptyRangeError(f"empty h-range [{h_min}, {h_max}]")
    width = h_max - h_min + 1
    parts = max(1, min(workers or 1, cpus))
    spans_per_part = -(-width // (parts * _SPAN_WIDTH))
    step = -(-width // (parts * spans_per_part))
    # a range narrower than parts has fewer spans, and one part per span
    return min(parts, -(-width // step)), range(h_min, h_max + 1, step)


def _map_spans(decide: Callable[[tuple[int, int]], object], h_min: int, h_max: int,
               workers: int | None = None) -> Iterator[object]:
    """``decide(span)`` for each span of [h_min, h_max], in h order.

    The spans and their parts are those of :func:`_plan`, decided before any
    fork, for ``workers`` capped at :func:`_usable_cpus`, or one part where
    ``os.fork`` is missing (Windows).  With one part the spans are decided
    here, one at a time, as the results are read.  Otherwise part i
    decides spans i, i + parts, ...: part 0 is this process, which decides
    each of its spans at its turn, and every other part is a child forked for
    this call, which writes each result (or exception) to its own pipe, so
    what ``decide`` returns and raises must pickle.  The results are read
    round-robin, in h order; a child blocks once its pipe is full, which
    bounds memory however slowly they are read.  A span's exception, this
    process's or a child's, is raised here at its span's turn, and a child
    that ends without its span's result raises RuntimeError.  When the
    reading ends, early (the reader closes the generator, a span raises, or
    Ctrl-C interrupts it) or not, every child is killed and reaped, one that
    something else reaped first passed over, so no span is decided after that
    and no process outlives the call; a SIGTERM that would kill this process
    outright does the same first, and then kills it, until the call ends.  A
    child never acts on SIGINT: a terminal's Ctrl-C reaches the whole process
    group, and only this process may end the call.
    Raises :class:`EmptyRangeError` on the first ``next`` when h_min > h_max.
    """
    parts, starts = _plan(h_min, h_max, workers, _usable_cpus() if hasattr(os, "fork") else 1)

    def span(lo: int) -> tuple[int, int]:
        return lo, min(lo + starts.step - 1, h_max)

    if parts == 1:
        yield from map(decide, map(span, starts))
        return
    import pickle  # here, not at the top: importing the CLI stays cheap
    import signal

    pids, pipes = [], []

    def end_children(signum: int | None = None, frame: object = None) -> None:
        # kill and reap every child; as the SIGTERM handler, then die by it
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        if signum is not None:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

    # SIGINT and SIGTERM are held from before the first pipe until every child
    # is in pids and its pipe in pipes, and again while the children are
    # ended, so neither can leave a child or a pipe behind; each is delivered
    # once the mask is back.  A child keeps SIGINT held.
    held = {signal.SIGINT, signal.SIGTERM}
    unheld = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, held)
        for i in range(1, parts):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                signal.pthread_sigmask(signal.SIG_SETMASK, unheld | {signal.SIGINT})
                _decide_in_child(decide, map(span, starts[i::parts]), write_end)
            pids.append(pid)
            os.close(write_end)
            pipes.append(open(read_end, "rb"))
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:  # it would kill us outright
            try:
                signal.signal(signal.SIGTERM, end_children)
            except ValueError:  # not the main thread, which alone may set a handler
                pass
        signal.pthread_sigmask(signal.SIG_SETMASK, unheld)
        for i, (lo, hi) in enumerate(map(span, starts)):
            if i % parts == 0:  # part 0, this process's own
                yield decide((lo, hi))
                continue
            try:
                ok, value = pickle.load(pipes[i % parts - 1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"the worker for h in [{lo}, {hi}] ended without its result"
                ) from None
            if not ok:
                raise value
            yield value
    finally:  # ends the children still deciding, and reaps every child
        try:  # a signal that came just before raises here, once both are held
            signal.pthread_sigmask(signal.SIG_BLOCK, held)
        finally:
            try:
                end_children()
            finally:
                for pipe in pipes:
                    pipe.close()
                if signal.getsignal(signal.SIGTERM) is end_children:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_SETMASK, unheld)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one.

    ``os.cpu_count()`` counts the host's CPUs, so a process pinned to fewer
    (``taskset``, a cpuset container) would fork more workers than it can run.
    """
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _decide_in_child(decide: Callable[[tuple[int, int]], object],
                     spans: Iterator[tuple[int, int]], fd: int) -> None:
    """Pickle ``(True, decide(span))`` or ``(False, exception)`` to fd per span.

    Runs in a forked child and never returns: it leaves through
    ``os._exit``, so it never flushes the stdio it inherited nor runs the
    parent's exit handlers.
    """
    import pickle

    try:
        with open(fd, "wb") as out:
            for span in spans:
                try:
                    result = True, decide(span)
                except Exception as exc:
                    result = False, exc
                pickle.dump(result, out)
                out.flush()
    finally:
        os._exit(0)


def _admissible(lo: int, hi: int) -> list[int]:
    """The h in [lo, hi] with 56 | h(h-1), ascending, stepping h = 56k + r.

    The residues r in [0, 56) come from the scan :func:`enumerate_residues`,
    and 56 | r(r-1) is checked once per residue: for h = 56k + r,
    h(h-1) = r(r-1) mod 56 (see ``_CASE_PERIOD``), so the check holds for h
    exactly when it holds for r.  Every h of the periods from lo's to hi's
    is listed, and one slice drops those of lo's period below lo and those
    of hi's period above hi.  A backwards range gives [].
    """
    residues = [r for r in enumerate_residues(56).residues if r * (r - 1) % 56 == 0]
    hs = [base + r for base in range(56 * (lo // 56), hi + 1, 56) for r in residues]
    return hs[sum(r < lo % 56 for r in residues):len(hs) - sum(r > hi % 56 for r in residues)]


def _verify_chunk(span: tuple[int, int]) -> tuple[int, int, list[_Run]]:
    """(checked, failed, runs) of the admissible h in span, in one loop.

    The oracle, the target and the kernel are read from this module once
    per call, so a fault patched into any of them is seen.  Per h the loop
    calls the oracle and the kernel, which calls the closed form and p1 and
    gives the verdict string, once each, with that h; nothing else but the
    per-residue lookups of their formulas.  A row passes when the oracle's
    pair is the target, the kernel's is it at scale 1792 and the verdict is
    RP7.  A kernel fault fails its row, named in the verdict.  The outcome
    is a function of the oracle's pair and the kernel's answer (its pair and
    verdict, or the verdict named for the exception it raised), so it is
    worked out again only where either differs from the previous h's, and a
    new run starts only where the outcome differs.  So no two runs in a row
    share an outcome: a span with no fault is one run, and a fault at one h
    inside it three.  ``checked`` counts the admissible h, and ``failed``
    sums the lengths of the failing runs only.
    """
    oracle, target, kernel = _direct_mu_pair, _TARGET, _mu_quotient_scaled
    scaled_target = tuple([MU_SCALE // 224 * v for v in target])  # at the kernel's scale
    admissible = _admissible(*span)
    runs = []
    outcome = hs = pair = answer = None
    for h in admissible:
        h_pair = oracle(h)
        try:
            h_answer = kernel(h)
        except DerivationMismatch:
            h_answer = None, "derivation_mismatch"
        except DichotomyViolationError:
            h_answer = None, "dichotomy_violation"
        if h_pair != pair or h_answer != answer:  # maybe another outcome
            pair, answer = h_pair, h_answer
            # once pair == target, the kernel agrees with the oracle iff it gives
            # scaled_target; scaled is None where the kernel raised
            scaled, verdict = answer
            row = verdict, pair == target and scaled == scaled_target and verdict == "RP7", pair
            if row != outcome:
                outcome, hs = row, []
                runs.append((outcome, hs))
        hs.append(h)
    # outcome[1] is the pass flag: unpacking it in the loop costs more per run
    return len(admissible), sum([len(hs) for outcome, hs in runs if not outcome[1]]), runs


def _direct_mu_pair(h: int) -> tuple[int, int]:
    """:func:`direct_mu_set` read in integers at scale 224, as a sorted pair.

    224 * (h(h-1)/112 +/- (2h-1)/32) = 2h(h-1) +/- 7(2h-1), so the members are
    a/224 and b/224 with a < b those two sums mod 224.  Both sums are odd
    (even plus or minus odd), so no member is 0, and they never coincide,
    since a - b = 14(2h-1) and 16 does not divide 2h - 1.  Expands to
    ``direct_mu_set(h)`` for every integer h; shares no code or scale with
    the quotient kernel (1792).  Both sums are integer polynomials in h taken
    mod 224, so h mod 224 decides them (see ``_CASE_PERIOD``), and the pair
    is looked up by it in ``_ORACLE``, whose slot for it is filled by
    :func:`_oracle_mod` on first use.
    """
    r = h % 224
    pair = _ORACLE[r]
    if pair is None:  # the residue's first use
        pair = _ORACLE[r] = _oracle_mod(r)
    return pair


#: :func:`_oracle_mod` at each residue of h mod 224, None until first met.
#: Filled lazily, not at import, so that importing the CLI stays cheap.
_ORACLE: list[tuple[int, int] | None] = [None] * 224


def _oracle_mod(r: int) -> tuple[int, int]:
    """:func:`_direct_mu_pair` at a residue r of h mod 224."""
    quad, odd = 2 * r * (r - 1), 7 * (2 * r - 1)
    a, b = (quad + odd) % 224, (quad - odd) % 224
    return (a, b) if a < b else (b, a)
