"""Brute-force oracles and the exhaustive residue/case analysis.

Everything here double-checks the bundle/quotient pipeline from the outside:

* residue classes of h with 56 | h(h-1), found by raw scan and independently
  by a Chinese-remainder construction;
* the four residue cases h = 56k + {0, 1, 8, 49}, whose mu terms are checked
  against their stated ``constant + k/2`` congruences for every k in range;
* a theorem sweep that re-evaluates mu(M_h/tau_h) straight from the closed
  formula, sharing no code with the quotient assembly it is meant to catch
  lying: in plain fraction arithmetic (:func:`direct_mu_set`) for
  :func:`brute_force_theorem`, and in integers at scale 224 for the rows of
  the oracle-vs-pipeline sweep, where the quotient kernel works at scale 1792.

That sweep has one engine, :func:`_map_spans`.  It cuts the range into
spans, decides them in process or in children it forks for the call, each
streaming its finished spans back through a pipe, and hands each span's
result out in h order as soon as it is decided.  :func:`_sweep`
yields the compact int rows of each span, each value set as the oracle's
sorted int pair at scale 224, and :func:`verify_range` collects them into
:class:`VerifyRow` objects.  The ``verify`` command gives the engine its own
per-span renderer, so each span is rendered where it is decided.
"""

from __future__ import annotations

import enum
import functools
import os
from collections.abc import Callable, Iterator
from fractions import Fraction

from ._record import Record
from .bundles import DerivationMismatch, MilnorBundle
from .quotient import (
    MU_SCALE,
    DichotomyViolationError,
    Verdict,
    _mu_quotient_scaled,
    _verdict,
)
from .qz import AmbiguousResidue, ResidueModZ, reduce_mod_z

_SCAN_LIMIT = 10**6

#: mu value set every admissible quotient must hit: {1/32, 31/32}.  Spelled
#: out here rather than imported as ``quotient.MU_RP7`` on purpose: the sweep
#: checks the pipeline against the theorem, and a target taken from the
#: pipeline would let one wrong constant pass on both sides.
_TARGET = AmbiguousResidue.of(
    reduce_mod_z(Fraction(1, 32)), reduce_mod_z(Fraction(31, 32))
)


class EmptyRangeError(ValueError):
    """A scan range turned out empty."""


class ResidueSolution(Record):
    """All residues r in [0, modulus) with r(r-1) = 0 mod 56."""

    __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)


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


class Case(enum.Enum):
    """The four admissible residue classes of h mod 56."""

    I = 0
    II = 1
    III = 8
    IV = 49

    @property
    def h_residue(self) -> int:
        return self.value


# Stated congruence constants per case: h(h-1)/112 = quad + k/2 and
# (2h-1)/32 = linear + k/2, both mod 1, for h = 56k + residue.
_CASE_CONSTANTS: dict[Case, tuple[Fraction, Fraction]] = {
    Case.I: (Fraction(0), Fraction(-1, 32)),
    Case.II: (Fraction(0), Fraction(1, 32)),
    Case.III: (Fraction(1, 2), Fraction(-1, 32) + Fraction(1, 2)),
    Case.IV: (Fraction(0), Fraction(1, 32)),
}


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


class CaseReport(Record):
    """Outcome of checking one case's congruences over a k-interval.

    The two half-terms are the functions ``quad_constant + k/2`` and
    ``linear_constant + k/2`` (mod 1) that the quadratic and linear mu terms
    must equal; ``matches`` is the conjunction over the whole range.
    """

    __slots__ = ("case", "h_residue", "quad_constant", "linear_constant", "k_min", "k_max",
                 "matches", "failures")

    def __init__(self, case: Case, h_residue: int, quad_constant: Fraction,
                 linear_constant: Fraction, k_min: int, k_max: int, matches: bool,
                 failures: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "h_residue", h_residue)
        object.__setattr__(self, "quad_constant", quad_constant)
        object.__setattr__(self, "linear_constant", linear_constant)
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "matches", matches)
        object.__setattr__(self, "failures", failures)


def check_case(case: Case, k_min: int, k_max: int) -> CaseReport:
    """Verify one case's stated congruences for every k in [k_min, k_max].

    Checks, for h = 56k + residue: (a) h(h-1)/112 = quad + k/2 mod 1,
    (b) (2h-1)/32 = linear + k/2 mod 1, and (c) that the two assemble to the
    value set {1/32, 31/32}.

    The congruences are decided in exact integer arithmetic after clearing
    denominators (112, 32, and their lcm 224): (a) becomes
    h(h-1) - 112*quad - 56k = 0 mod 112, (b) becomes
    (2h-1) - 32*linear - 16k = 0 mod 32, and (c) asks the sweep's oracle
    :func:`_direct_mu_pair` for the value set at scale 224 and compares it
    with the sweep's target, ``_pair(_TARGET)``.

    Each of these is an integer polynomial in h taken mod a divisor of 224,
    so whether k fails depends only on h mod 224, that is on k mod 4 (see
    ``_CASE_PERIOD``).  Every k in the range is still decided: the first
    ``_CASE_PERIOD // 56`` k of the range (one period of h) are tested k by
    k, and each failing k0 there stands for every k0 + 4t in range.  When
    the case matches, any k-range therefore costs the same, four oracle
    calls at most.  When it fails, ``failures`` lists every failing k in the
    range, so time and memory grow linearly with the width.
    """
    if k_min > k_max:
        raise EmptyRangeError(f"empty k-range [{k_min}, {k_max}]")
    quad, linear = _CASE_CONSTANTS[case]
    res = case.h_residue
    quad_112 = int(quad * 112)
    linear_32 = int(linear * 32)
    target = _pair(_TARGET)
    k_period = _CASE_PERIOD // 56
    period_failures = []
    for k in range(k_min, min(k_max, k_min + k_period - 1) + 1):
        h = 56 * k + res
        ok = (
            (h * (h - 1) - quad_112 - 56 * k) % 112 == 0
            and (2 * h - 1 - linear_32 - 16 * k) % 32 == 0
            and _direct_mu_pair(h) == target
        )
        if not ok:
            period_failures.append(k)
    # with nothing failing, skip the shifts: a wide range has ~width/4 of them
    shifts = range(0, k_max - k_min + 1, k_period) if period_failures else ()
    failures = [k0 + t for t in shifts for k0 in period_failures if k0 + t <= k_max]
    return CaseReport(
        case=case,
        h_residue=res,
        quad_constant=quad,
        linear_constant=linear,
        k_min=k_min,
        k_max=k_max,
        matches=not failures,
        failures=tuple(failures),
    )


def direct_mu_set(h: int) -> AmbiguousResidue:
    """mu(M_h/tau_h) evaluated raw from the closed formula, both signs.

    This is the oracle: plain fraction arithmetic and reduction mod 1, no
    characteristic-class plumbing, no shared code with the quotient module.
    """
    base = Fraction(h * (h - 1), 112)
    shift = Fraction(2 * h - 1, 32)
    return AmbiguousResidue.of(
        reduce_mod_z(base + shift), reduce_mod_z(base - shift)
    )


class TheoremSweep(Record):
    """Counts from a brute-force sweep; failures carry the offending h."""

    __slots__ = ("h_min", "h_max", "checked", "passed", "failed", "failures")

    def __init__(self, h_min: int, h_max: int, checked: int, passed: int, failed: int,
                 failures: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "h_min", h_min)
        object.__setattr__(self, "h_max", h_max)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failed", failed)
        object.__setattr__(self, "failures", failures)


def brute_force_theorem(h_min: int, h_max: int) -> TheoremSweep:
    """Check mu(M_h/tau_h) = {1/32, 31/32} for every admissible h in range.

    The admissible h are stepped as h = 56k + r, as in :func:`verify_range`;
    failures are collected, never raised, so a full report always comes back.
    """
    checked = 0
    failures = []
    for h in _admissible(h_min, h_max):
        checked += 1
        if direct_mu_set(h) != _TARGET:
            failures.append(h)
    return TheoremSweep(
        h_min=h_min,
        h_max=h_max,
        checked=checked,
        passed=checked - len(failures),
        failed=len(failures),
        failures=tuple(failures),
    )


class VerifyRow(Record):
    """One admissible h: oracle mu set, pipeline verdict, agreement flag."""

    __slots__ = ("h", "residue_class", "mu_set", "verdict", "passed")

    def __init__(self, h: int, residue_class: int, mu_set: AmbiguousResidue, verdict: str,
                 passed: bool) -> None:
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "residue_class", residue_class)
        object.__setattr__(self, "mu_set", mu_set)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "passed", passed)


#: What a sweep worker returns per row: (h, verdict, passed, (a, b)), with
#: (a, b) the oracle's value set {a/224, b/224}; ints, strs and bools only, so
#: results pickle small and unpickle fast.
_CompactRow = tuple[int, str, bool, tuple[int, int]]

_RP7_VERDICT = Verdict.REAL_PROJECTIVE_7.value


def verify_range(h_min: int, h_max: int, workers: int | None = None) -> tuple[VerifyRow, ...]:
    """Oracle-vs-pipeline sweep over every admissible h in [h_min, h_max].

    Each row passes when the oracle value set is {1/32, 31/32}, the
    classification pipeline agrees on the set, and its verdict is RP7.  A
    pipeline fault at one h fails that row (verdict ``derivation_mismatch``
    or ``dichotomy_violation``) and the sweep goes on.  With ``workers`` > 1
    the spans go to at most :func:`pool_size` worker processes; rows come
    back in h order either way.  The rows are those of :func:`_sweep`, made
    into :class:`VerifyRow` objects; each distinct oracle pair is expanded
    once per call, so rows share one :class:`AmbiguousResidue` per value set.
    """
    expand = functools.cache(_expand)
    return tuple(
        VerifyRow(h, h % 56, expand(mu), verdict, passed)
        for h, verdict, passed, mu in _sweep(h_min, h_max, workers)
    )


#: Most h in one span of a sweep: 512 periods of 56, about 2k rows.
_SPAN_WIDTH = 56 * 512


def _sweep(h_min: int, h_max: int, workers: int | None = None) -> Iterator[_CompactRow]:
    """The compact rows of the admissible h in [h_min, h_max], in h order.

    Each row is ``(h, verdict, passed, (a, b))``, where (a, b) is the
    oracle's value set as :func:`_direct_mu_pair` gives it.  The spans are
    those of :func:`_map_spans`, each decided by :func:`_verify_chunk`; raises
    :class:`EmptyRangeError` on the first ``next`` when h_min > h_max.
    """
    for rows in _map_spans(_verify_chunk, h_min, h_max, workers):
        yield from rows


def _map_spans(decide: Callable[[tuple[int, int]], object], h_min: int, h_max: int,
               workers: int | None = None) -> Iterator[object]:
    """``decide(span)`` for each span of [h_min, h_max], in h order.

    The range is cut into spans (lo, hi), with ``parts`` from
    :func:`pool_size`, or one part where ``os.fork`` is missing (Windows).
    With one part the spans are ``_SPAN_WIDTH`` h wide and are decided here,
    one at a time, as the results are read.  Otherwise each part gets the
    same number of spans, all of one width up to ``_SPAN_WIDTH`` but the last
    (narrower by less than the span count), so the parts finish together, and
    each part is a child forked for this call: child i decides spans i,
    i + parts, ... and writes each result (or exception) to its own pipe, so
    what ``decide`` returns and raises must pickle.  The results are read
    round-robin, in h order; a child blocks once its pipe is full, which
    bounds memory however slowly they are read.  A child's exception is
    raised here at its span's turn, and a child that ends without its span's
    result raises RuntimeError.  When the reading ends, early (the reader
    closes the generator, or a span raises) or not, every child is killed
    and reaped, one that something else reaped first passed over, so no span
    is decided after that and no process outlives the call.  Raises
    :class:`EmptyRangeError` on the first ``next`` when h_min > h_max.
    """
    if h_min > h_max:
        raise EmptyRangeError(f"empty h-range [{h_min}, {h_max}]")
    width = h_max - h_min + 1
    parts = pool_size(workers or 1, os.cpu_count(), width) if hasattr(os, "fork") else 1
    if parts == 1:
        step = _SPAN_WIDTH
    else:
        spans_per_part = -(-width // (parts * _SPAN_WIDTH))
        step = -(-width // (parts * spans_per_part))
    starts = range(h_min, h_max + 1, step)

    def span(lo: int) -> tuple[int, int]:
        return lo, min(lo + step - 1, h_max)

    if parts == 1:
        yield from map(decide, map(span, starts))
        return
    import pickle  # here, not at the top: importing the CLI stays cheap
    import signal

    children = min(parts, -(-width // step))
    pids, pipes = [], []
    try:
        for i in range(children):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _decide_in_child(decide, map(span, starts[i::children]), write_end)
            pids.append(pid)
            os.close(write_end)
            pipes.append(open(read_end, "rb"))
        for i, (lo, hi) in enumerate(map(span, starts)):
            try:
                ok, value = pickle.load(pipes[i % children])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(
                    f"the worker for h in [{lo}, {hi}] ended without its result"
                ) from None
            if not ok:
                raise value
            yield value
    finally:  # ends the children still deciding, and reaps every child
        try:  # a child reaped elsewhere first must not spare the others
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
        finally:
            for pipe in pipes:
                pipe.close()


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


def pool_size(requested: int, cpus: int | None, width: int) -> int:
    """Worker count for a sweep: min(requested, cpus, width), at least 1.

    A narrow range is cut into at most this many spans, one worker each, so
    no worker ever sits idle; a wide one into spans of at most
    ``_SPAN_WIDTH`` h, the same number per worker.
    """
    return max(1, min(requested, cpus or 1, width))


def _admissible(lo: int, hi: int) -> Iterator[int]:
    """The h in [lo, hi] with 56 | h(h-1), ascending, stepping h = 56k + r.

    The residues r come from the scan :func:`enumerate_residues`, and the
    divisibility is still checked per h.  A backwards range yields nothing.
    """
    residues = enumerate_residues(56).residues
    for k in range(lo // 56, hi // 56 + 1):
        for r in residues:
            h = 56 * k + r
            if lo <= h <= hi and h * (h - 1) % 56 == 0:
                yield h


def _verify_chunk(span: tuple[int, int]) -> tuple[_CompactRow, ...]:
    """Compact rows for the admissible h in span."""
    target = _pair(_TARGET)
    return tuple([_verify_row(h, target) for h in _admissible(*span)])


#: 1792 / 224: the kernel's scale over the oracle's.
_ORACLE_TO_KERNEL = MU_SCALE // 224


def _verify_row(h: int, target: tuple[int, ...]) -> _CompactRow:
    oracle = a, b = _direct_mu_pair(h)
    try:
        scaled = _mu_quotient_scaled(MilnorBundle(h))
        verdict = _verdict(h, scaled)._value_  # a plain str, without the Enum.value descriptor
        agreed = scaled == (a * _ORACLE_TO_KERNEL, b * _ORACLE_TO_KERNEL)
    except DerivationMismatch:
        verdict, agreed = "derivation_mismatch", False
    except DichotomyViolationError:
        verdict, agreed = "dichotomy_violation", False
    passed = agreed and oracle == target and verdict == _RP7_VERDICT
    return h, verdict, passed, oracle


def _direct_mu_pair(h: int) -> tuple[int, int]:
    """:func:`direct_mu_set` read in integers at scale 224, as a sorted pair.

    224 * (h(h-1)/112 +/- (2h-1)/32) = 2h(h-1) +/- 7(2h-1), so the members are
    a/224 and b/224 with a < b those two sums mod 224.  Both sums are odd
    (even plus or minus odd), so no member is 0, and they never coincide,
    since a - b = 14(2h-1) and 16 does not divide 2h - 1.  Equal to
    ``_pair(direct_mu_set(h))`` for every integer h; shares no code or scale
    with the quotient kernel (1792).
    """
    quad, odd = 2 * h * (h - 1), 7 * (2 * h - 1)
    a, b = (quad + odd) % 224, (quad - odd) % 224
    return (a, b) if a < b else (b, a)


def _pair(mu: AmbiguousResidue) -> tuple[int, ...]:
    """224 * v for each member v of mu, in order: the oracle's form of mu.

    Raises ValueError when a member is not a multiple of 1/224.  Members are
    canonical reps in [0, 1), sorted and distinct, so two value sets are
    equal exactly when their pairs are.
    """
    scaled = [divmod(224 * v.rep.numerator, v.rep.denominator) for v in mu.values]
    if any(rem for _, rem in scaled):
        raise ValueError(f"{mu} has a member off the 1/224 grid")
    return tuple([a for a, _ in scaled])


def _expand(pair: tuple[int, ...]) -> AmbiguousResidue:
    """Inverse of :func:`_pair`."""
    return AmbiguousResidue(tuple([ResidueModZ(Fraction(v, 224)) for v in pair]))
