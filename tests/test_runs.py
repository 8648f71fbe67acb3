"""The runs of a sweep span decode to the rows of a plain per-h loop.

``verify._verify_chunk`` gives each span as runs, each an outcome and the
consecutive h that share it, and ``verify_range`` expands the same runs.  So
the reference, ``test_faults.per_h_rows``, is computed h by h from the seams
that ``tests/test_faults.py`` patches, and ``verify``'s json, table and csv
output is compared with a rendering of that reference.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import VERIFY_HEADER, render_verify, run_verify
from test_faults import (FAULTS, ONLY_H_FAULTS, WINDOW, WORKERS, expand_runs,
                         oracle_off_on_odd_h, per_h_rows, reference_verify_rows)

from milnor_mu import cli, verify

pytestmark = pytest.mark.usefixtures("two_usable_cpus")

#: Every fault of test_faults: each whole-route one, and each that takes
#: only_h at h = 8, where it fails one row in the middle of a run.
ALL_FAULTS = {
    None: lambda monkeypatch: None,
    **{name: inject for name, (inject, _) in FAULTS.items()},
    **{f"{name}_at_8": functools.partial(inject, only_h=8)
       for name, (inject, _) in ONLY_H_FAULTS.items()},
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", ALL_FAULTS, ids=str)
def test_runs_decode_to_the_per_h_rows(monkeypatch, fault, workers):
    ALL_FAULTS[fault](monkeypatch)
    spans = list(verify._map_spans(verify._verify_chunk, *WINDOW, workers))
    assert [row for chunk in spans for row in expand_runs(chunk)] == per_h_rows(*WINDOW)
    for _, _, runs in spans:
        assert all(hs for _, hs in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    if fault is None:
        assert all(len(runs) == 1 for _, _, runs in spans)
    elif fault.endswith("_at_8"):
        # the one span that holds h = 8 has three runs, and h = 8 alone in the middle
        [split] = [runs for _, _, runs in spans if len(runs) > 1]
        assert len(split) == 3 and split[1][1] == [8]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
@pytest.mark.parametrize("fault", ALL_FAULTS, ids=str)
def test_verify_output_equals_the_rendered_per_h_rows(capsys, monkeypatch, fault, fmt, workers):
    ALL_FAULTS[fault](monkeypatch)
    expected = render_verify(reference_verify_rows(per_h_rows(*WINDOW)), *WINDOW, fmt)
    assert expected[2] == (0 if fault is None else 2)
    assert run_verify(capsys, WINDOW, fmt, workers) == expected


def per_h_text(rows, fmt):
    """``verify``'s rows for ``rows`` (h, verdict, passed, pair), rendered h by h.

    csv lines, json row objects joined by ``",\n"`` at their depth in the
    payload, or table lines at the widths of these rows and the header.
    """
    cells = [(h, h % 56, [str(Fraction(v, 224)) for v in pair], verdict,
              "true" if passed else "false") for h, verdict, passed, pair in rows]
    if fmt == "csv":
        return "".join(f"{h},{r},{';'.join(mu)},{verdict},{ok}\n"
                       for h, r, mu, verdict, ok in cells)
    if fmt == "json":
        return ",\n".join(
            f'    {{\n      "h": {h},\n      "residue_class": {r},\n      "mu_quotient": [\n'
            + ",\n".join(f'        "{m}"' for m in mu)
            + f'\n      ],\n      "verdict": "{verdict}",\n      "pass": {ok}\n    }}'
            for h, r, mu, verdict, ok in cells)
    texts = [[str(h), str(r), ";".join(mu), verdict, ok] for h, r, mu, verdict, ok in cells]
    w = [max(len(row[i]) for row in [VERIFY_HEADER, *texts]) for i in range(5)]
    return "".join(f"{h:<{w[0]}}  {r:<{w[1]}}  {mu:<{w[2]}}  {verdict:<{w[3]}}  {ok:<{w[4]}}"
                   .rstrip() + "\n" for h, r, mu, verdict, ok in texts)


def rendered_span(fmt, span):
    """(checked, failed, text) of ``span`` through ``cli._render_span`` and, for
    json and table, the writer's renderers, as ``verify`` writes it."""
    checked, failed, chunk = cli._render_span(fmt, span)
    if fmt == "json":
        chunk = cli._render_runs(fmt, chunk, {})
    elif fmt == "table":
        widths, tails = cli._table_layout(VERIFY_HEADER, [chunk] if chunk else [])
        chunk = cli._render_runs(fmt, chunk, tails, widths[0])
    return checked, failed, chunk


#: The faults a span is rendered under: none, each only-h one at an h the
#: test picks in the span, and one whose outcome alternates from h to h.
SPAN_FAULTS = [None, *sorted(ONLY_H_FAULTS), "oracle_off_on_odd_h"]

#: The multiple of 56 nearest below 10^18, a base of the spans rendered near +-10^18.
NEAR_1E18 = 10**18 - 10**18 % 56


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SPAN_FAULTS), st.sampled_from([0, -NEAR_1E18, NEAR_1E18]),
       st.integers(-40, 40), st.sampled_from([0, 1, 8, 49]), st.integers(0, 55),
       st.integers(0, 300), st.integers(0, 10**6))
@example(None, 0, 0, 0, 0, 0, 0)  # one-h spans at each starting residue
@example(None, 0, 0, 1, 0, 0, 0)
@example(None, -NEAR_1E18, 0, 8, 0, 0, 0)
@example(None, NEAR_1E18, 0, 49, 0, 0, 0)
@example("closed_form", 0, -1, 49, 0, 0, 0)  # a faulted one-h span at a negative h
@example(None, 0, -1, 0, 0, 100, 0)  # -56..44: the first h is the widest
@example("oracle", -NEAR_1E18, 3, 0, 0, 200, 2)  # a one-h run inside a span
@example("oracle_off_on_odd_h", NEAR_1E18, -1, 1, 30, 300, 0)  # every run one h long
def test_a_span_renders_as_its_rows_rendered_h_by_h(fault, base, k, residue, lead, width, pick):
    # the span holds h0 = base + 56k + residue, base a multiple of 56, so its
    # first admissible h has that residue when lead is 0, and it is one h wide
    # when width is 0 too
    h0 = base + 56 * k + residue
    span = h0 - lead, h0 + width
    admissible = [h for h in range(span[0], span[1] + 1) if h * (h - 1) % 56 == 0]
    with pytest.MonkeyPatch.context() as patch:
        if fault == "oracle_off_on_odd_h":
            oracle_off_on_odd_h(patch)
        elif fault is not None:
            ONLY_H_FAULTS[fault][0](patch, only_h=admissible[pick % len(admissible)])
        rows = per_h_rows(*span)
        failed = sum(1 for _, _, passed, _ in rows if not passed)
        for fmt in ["csv", "json", "table"]:
            assert rendered_span(fmt, span) == (len(rows), failed, per_h_text(rows, fmt))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, *sorted(ONLY_H_FAULTS)]), st.booleans(),
       st.sampled_from([0, -NEAR_1E18, NEAR_1E18]), st.integers(-3000, 3000),
       st.integers(0, 400), st.integers(0, 10**6))
@example(None, False, 0, 2, 5, 0)  # 2..7: no admissible h
@example("oracle", False, 0, 2, 5, 0)
@example(None, False, 0, 8, 0, 0)  # one-h spans
@example("closed_form", False, 0, -7, 0, 0)
@example("assembly_input", True, -NEAR_1E18, 49, 0, 0)
@example("oracle", False, NEAR_1E18, -56, 200, 3)
@example("closed_form", True, NEAR_1E18, -56, 200, 3)  # one failing run of many h
def test_a_span_counts_its_rows_and_failures_as_a_per_h_loop(fault, everywhere, base, lo,
                                                             width, pick):
    # the fault fails every h of the span, or one admissible h drawn from it
    span = base + lo, base + lo + width
    with pytest.MonkeyPatch.context() as patch:
        rows = per_h_rows(*span)
        if fault is not None and rows:
            only_h = None if everywhere else rows[pick % len(rows)][0]
            ONLY_H_FAULTS[fault][0](patch, only_h=only_h)
            rows = per_h_rows(*span)
        checked, failed, _ = verify._verify_chunk(span)
    expected_failed = sum(1 for _, _, passed, _ in rows if not passed)
    assert expected_failed == (0 if fault is None or not rows else len(rows) if everywhere else 1)
    assert (checked, failed) == (len(rows), expected_failed)


#: What precedes h in a row of each format: json opens the row object.
OPENERS = {"csv": "", "json": '    {\n      "h": ', "table": ""}

#: Characters of the drawn suffixes, %-format syntax among them.
SUFFIX_TEXT = st.text(st.sampled_from('ab,;%d-s()\n "{}'), max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["csv", "json", "table"]),
       st.one_of(st.integers(-5000, 5000), st.integers(10**20 - 5000, 10**20 + 5000),
                 st.integers(-(10**20) - 5000, -(10**20) + 5000)),
       st.sampled_from([0, 1, 8, 49]), st.integers(1, 300),
       st.lists(st.integers(1, 299), max_size=6, unique=True),
       st.lists(SUFFIX_TEXT, min_size=4, max_size=4), st.lists(SUFFIX_TEXT, min_size=4, max_size=4),
       st.integers(1, 24))
@example("csv", 0, 0, 1, [], ["%d,%%,%s", "%", "%(h)d", "100%\n"], ["", "", "", ""], 1)
@example("csv", 0, 0, 300, [], ["%d,%%,%s", "%", "%(h)d", "100%\n"], ["", "", "", ""], 1)
@example("json", -200, 1, 300, [1, 299], ["%", "%%", "d", ""], ["%d", "", "x", "%"], 3)
@example("table", 10**20, 8, 7, [3], ["%-5d", "", "%", "y"], ["", "%", "", ""], 22)
@example("table", -(10**20), 49, 2, [1], ["a", "b", "c", "d"], ["%", "%", "%", "%"], 1)
def test_render_runs_equals_a_per_row_reference(fmt, base, residue, count, cuts, suffixes_a,
                                                suffixes_b, width):
    # count consecutive admissible h from h0 = 56k + residue, cut into runs that
    # alternate between two outcomes, each with its own four suffixes
    h0 = 56 * (base // 56) + residue
    hs = [h for h in range(h0, h0 + 56 * 76) if h * (h - 1) % 56 == 0][:count]
    bounds = [0, *sorted(cut for cut in cuts if cut < count), count]
    runs = [("ab"[i % 2], hs[lo], hs[hi - 1]) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    suffixes = {"a": suffixes_a, "b": suffixes_b}
    tails = {outcome: 2 * tuple(four) for outcome, four in suffixes.items()}
    h_width = width if fmt == "table" else None
    place = {0: 0, 1: 1, 8: 2, 49: 3}
    expected = [OPENERS[fmt] + (str(h) if h_width is None else str(h).ljust(h_width))
                + suffixes[outcome][place[h % 56]]
                for i, (outcome, _, _) in enumerate(runs)
                for h in hs[bounds[i]:bounds[i + 1]]]
    text = cli._render_runs(fmt, runs, tails, h_width)
    assert text == ("" if fmt != "json" else ",\n").join(expected)
