"""Spans around the calls into each layer of puiseuxform, recorded from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` at the module
attribute it is looked up by (``puiseuxform.expansion.rational_roots`` is
what ``_enumerate_steps`` calls), so the package itself is not edited.
Every call becomes a span ``[name, start, end, parent, case]`` kept in
memory; ``layer_metrics`` turns the spans into per-layer self times and
counters, and ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from puiseuxform import expansion, oracle, polygon
from puiseuxform.cli import main as cli_main
from puiseuxform.cli import parser

# (module, attribute, layer).  A span is named "<module>.<attribute>".
WRAPPED = (
    (parser, "parse_form", "parser"),
    (parser, "poly_to_text", "parser"),
    (cli_main, "parse_form", "parser"),
    (cli_main, "poly_to_text", "parser"),
    (cli_main, "run", "cli"),
    (expansion, "polygon_of", "polygon"),
    (expansion, "support", "polygon"),
    (expansion, "y_order", "polygon"),
    (expansion, "multiplicity", "polygon"),
    (polygon, "polygon_of", "polygon"),
    (polygon, "support", "polygon"),
    (cli_main, "polygon_of", "polygon"),
    (cli_main, "support", "polygon"),
    (cli_main, "y_order", "polygon"),
    (cli_main, "multiplicity", "polygon"),
    (expansion, "characteristic_poly", "roots"),
    (expansion, "rational_roots", "roots"),
    (cli_main, "characteristic_poly", "roots"),
    (expansion, "transform_form", "algebra"),
    (expansion, "expand_branches", "search"),
    (cli_main, "expand_branches", "search"),
    (expansion, "lemma_checks", "lemmas"),
    (cli_main, "lemma_checks", "lemmas"),
    (expansion, "invariance_residual", "residual"),
    (cli_main, "invariance_residual", "residual"),
    (expansion, "verify_bound", "bound"),
    (cli_main, "verify_bound", "bound"),
    (oracle, "gen_case", "oracle"),
    (oracle, "branch_to_curve", "oracle"),
    (cli_main, "gen_case", "oracle"),
)


def _span_name(module, attr: str) -> str:
    return "%s.%s" % (module.__name__.removeprefix("puiseuxform."), attr)


LAYER_OF = {_span_name(m, a): layer for m, a, layer in WRAPPED}


def expansion_counts(res) -> Counter:
    """Counters read off an ``ExpansionResult``; ``peak_*`` keys merge by max."""
    entries = [e for trace in res.traces for e in trace]
    return Counter(
        branches=len(res.branches),
        traces=len(res.traces),
        exact=sum(1 for b in res.branches if b.exact),
        dead_ends=sum(
            1 for n in res.notes
            if "dead end" in n or "no rational continuation" in n
        ),
        peak_terms=max(
            (len(e.form_after.a.terms) + len(e.form_after.b.terms) for e in entries),
            default=0,
        ),
        peak_q=max((e.step.q_after for e in entries), default=1),
    )


def lemma_counts(report) -> Counter:
    """Lemma outcomes of one ``LemmaReport``, keyed ``lemma_<status>``."""
    return Counter(
        "lemma_" + c.status
        for s in report.steps
        for c in (s.l1, s.l2, s.l3, s.corollary)
    )


def merge_counts(total: Counter, part: Counter) -> None:
    for key, value in part.items():
        if key.startswith("peak_"):
            total[key] = max(total[key], value)
        else:
            total[key] += value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, case]
        self.stack: list[int] = []
        self.case = None
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.case])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._count(name, out)
            return out

        return traced

    def _count(self, name: str, out) -> None:
        attr = name.rsplit(".", 1)[1]
        if attr == "expand_branches":
            merge_counts(self.counts, expansion_counts(out))
        elif attr == "lemma_checks":
            merge_counts(self.counts, lemma_counts(out))
        elif attr == "rational_roots":
            self.counts["roots_found"] += len(out)
        elif attr == "branch_to_curve":
            self.counts["curve_terms"] += len(out.terms)

    def install(self) -> None:
        for module, attr, _layer in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(_span_name(module, attr), fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def close_open_spans(self) -> None:
        """End spans left open by a time limit that struck inside a wrapper."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()
        if self.spans and self.spans[-1][2] is None:  # struck before its push
            self.spans[-1][2] = now

    def layer_metrics(self) -> dict[str, float]:
        child_time: defaultdict[int, float] = defaultdict(float)
        for _name, start, end, parent, _case in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        under: Counter = Counter()  # (callee attribute, caller layer) -> calls
        for idx, (name, start, end, parent, _case) in enumerate(self.spans):
            layer = LAYER_OF[name]
            self_s[layer] += end - start - child_time[idx]
            calls[layer] += 1
            if parent is not None:
                under[name.rsplit(".", 1)[1], LAYER_OF[self.spans[parent][0]]] += 1
        c = self.counts
        n_roots = sum(1 for s in self.spans if s[0] == "expansion.rational_roots")
        checks = c["lemma_pass"] + c["lemma_fail"] + c["lemma_vacuous"]
        return {
            "parser.self_s": self_s["parser"],
            "parser.calls": calls["parser"],
            "cli.self_s": self_s["cli"],
            "polygon.self_s": self_s["polygon"],
            "polygon.calls": calls["polygon"],
            "roots.self_s": self_s["roots"],
            "roots.calls": n_roots,
            "roots.found_per_call": c["roots_found"] / n_roots if n_roots else 0.0,
            "algebra.transform_s": self_s["algebra"],
            "algebra.transform_calls": calls["algebra"],
            "algebra.peak_terms": c["peak_terms"],
            "search.self_s": self_s["search"],
            "search.nodes": under["polygon_of", "search"],
            "search.branches": c["branches"],
            "search.traces": c["traces"],
            "search.dead_ends": c["dead_ends"],
            "search.exact_per_trace": c["exact"] / c["traces"] if c["traces"] else 0.0,
            "search.peak_ram": c["peak_q"],
            "lemmas.self_s": self_s["lemmas"],
            "lemmas.checks": checks,
            "lemmas.pass": c["lemma_pass"],
            "lemmas.fail": c["lemma_fail"],
            "lemmas.vacuous": c["lemma_vacuous"],
            "lemmas.polygon_rebuilds": under["polygon_of", "lemmas"],
            "residual.self_s": self_s["residual"],
            "residual.calls": calls["residual"],
            "bound.self_s": self_s["bound"],
            "oracle.self_s": self_s["oracle"],
            "oracle.curve_terms": c["curve_terms"],
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, fh, separators=(",", ":"))
