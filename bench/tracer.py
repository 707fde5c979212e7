"""Per-layer tracing of hicourant, installed at run time from the benchmark.

`Tracer.install()` replaces the public functions of each module (and a
few methods of its value types) with timing wrappers, rebinding every
name in every loaded `hicourant` module that refers to the original
object, so `from .exterior import lie_form` copies in `courant`, `nambu`
and `plectic` are covered too.  `uninstall()` puts the originals back.
Names that a later version of the package no longer has are skipped and
listed in `missing`.

Calls into `cli`, `dsl`, `courant`, `nambu` and `plectic` are recorded
as spans (name, start, end, parent span, job id).  The hot `scalar` and
`exterior` calls only add to counters and to their layer's self time,
which is a call's duration minus the time of the wrapped calls it made.
Everything stays in memory until `dump` writes it out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scalar", "exterior", "courant", "nambu", "plectic", "dsl", "cli")
SPAN_LAYERS = frozenset(("cli", "dsl", "courant", "nambu", "plectic"))
_COURANT_SUITES = (
    "check_courant_axioms",
    "check_dorfman_axioms",
    "check_deformation",
    "check_gauge_isomorphism",
)


def _term_pairs(args) -> int:
    a, b = args[0], args[1]
    a_terms, b_terms = getattr(a, "terms", None), getattr(b, "terms", None)
    if isinstance(a_terms, dict) and isinstance(b_terms, dict):
        return len(a_terms) * len(b_terms)
    return 0


class Tracer:
    """Counters, per-layer self time and spans for the calls of one traced run."""

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.group_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.job: int | None = None
        self._frames: list[list[float]] = []  # child time of each open wrapped call
        self._span_ids: list[int] = []  # open spans
        self._outer: Counter[str] = Counter()  # open calls per group
        self._saved: list[tuple[object, str, object, bool]] = []
        self._origin = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, group: str = "", size=None, after=None, pairs=False):
        """Timing wrapper.  The outermost call of a `group` is also counted in
        `counts[group.calls]`, `counts[group.size]` and `group_s[group]`."""
        counts, self_s, group_s = self.counts, self.self_s, self.group_s
        frames, clock = self._frames, time.perf_counter
        span_ids, spans, outer, tracer = self._span_ids, self.spans, self._outer, self
        counter = f"{layer}.{name}.calls"
        is_span = layer in SPAN_LAYERS

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if pairs:
                counts["scalar.term_pairs"] += _term_pairs(args)
            outermost = False
            if group:
                outermost = not outer[group]
                outer[group] += 1
            span_id = None
            if is_span:
                span_id = len(spans)
                spans.append(None)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(span_id)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span_id is not None:
                    span_ids.pop()
                    spans[span_id] = (
                        f"{layer}.{name}",
                        start - tracer._origin,
                        end - tracer._origin,
                        parent,
                        tracer.job,
                    )
                if group:
                    outer[group] -= 1
                    if outermost:
                        counts[f"{group}.calls"] += 1
                        group_s[group] += elapsed
                        if size is not None:
                            counts[f"{group}.size"] += size(args, result)
                if after is not None and result is not None:
                    after(result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _rebind_function(self, module, attr: str, layer: str, **options) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(original, layer, attr.lstrip("_"), **options)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hicourant" or name.startswith("hicourant.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr: str, layer: str, name: str, **options) -> None:
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        own = attr in vars(cls)
        self._saved.append((cls, attr, original, own))
        setattr(cls, attr, self._wrap(original, layer, name, **options))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        from hicourant import cli, courant, dsl, exterior, nambu, plectic, scalar

        poly = scalar.Poly
        for attr in ("__mul__", "__rmul__"):
            self._rebind_method(poly, attr, "scalar", "mul", pairs=attr == "__mul__")
        for attr in ("__add__", "__radd__"):
            self._rebind_method(poly, attr, "scalar", "add")
        for attr in ("__sub__", "__rsub__", "__neg__"):
            self._rebind_method(poly, attr, "scalar", "sub")
        self._rebind_method(poly, "partial", "scalar", "partial")
        self._rebind_method(poly, "eval_at", "scalar", "eval_at")

        for attr in (
            "i_vec",
            "ext_d",
            "lie_form",
            "lie_form_components",
            "lie_multivec",
            "vec_bracket",
            "vec_apply",
            "d_scalar",
            "full_pair",
        ):
            self._rebind_function(exterior, attr, "exterior")
        for attr in ("contract_form_into_vec", "contract_vec_into_form"):
            self._rebind_function(exterior, attr, "exterior", group="exterior.contract")
        for cls in (exterior.Form, exterior.MultiVec):
            # the module-level wedge() calls this method, which is counted once
            for attr in ("wedge", "__xor__"):
                self._rebind_method(cls, attr, "exterior", "wedge")
            for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
                self._rebind_method(cls, attr, "exterior", "tensor_ops")

        for attr in ("dorfman_bracket", "courant_bracket"):
            self._rebind_function(courant, attr, "courant", after=self._count_suite_bracket)
        for attr in ("deformed_dorfman", "pairing", "t_map", "gauge"):
            self._rebind_function(courant, attr, "courant")
        for attr in _COURANT_SUITES:
            self._rebind_function(courant, attr, "courant", group="courant.suite", after=self._count_suite_cases)

        self._rebind_function(nambu, "np_fundamental_check", "nambu", after=self._count_tuples)
        for attr in (
            "pi_sharp",
            "graph_closure_check",
            "check_nambu_leibniz_algebroid",
            "nambu_form_bracket",
            "marrero_bracket",
            "leibniz_nm1_bracket",
        ):
            self._rebind_function(nambu, attr, "nambu")

        for attr in (
            "omega_flat",
            "nondegeneracy_check",
            "solve_admissible",
            "solve_hamiltonian",
            "graph_closure_omega",
            "deformed_graph_check",
            "check_admissible_lie_algebroid",
            "admissible_bracket",
        ):
            self._rebind_function(plectic, attr, "plectic")
        # exact Gauss-Jordan eliminations
        for attr in ("_rank_and_kernel", "_solve_constant"):
            self._rebind_function(plectic, attr, "plectic", group="plectic.rank")

        for attr in ("parse", "parse_scalar", "parse_form", "parse_multivec", "parse_section"):
            self._rebind_function(dsl, attr, "dsl", group="dsl.parse", size=lambda args, _: len(args[0]))
        for cls in (scalar.Poly, exterior.Form, exterior.MultiVec, courant.Section):
            self._rebind_method(
                cls, "__str__", "dsl", "render", group="dsl.render", size=lambda _, text: len(text)
            )

        for attr in ("main", "_run_check", "_cmd_check", "_cmd_bracket", "_cmd_solve"):
            self._rebind_function(cli, attr, "cli")
        report = getattr(cli, "SuiteReport", None)
        for attr in ("to_json", "to_text"):
            if report is None:
                self.missing.append(f"cli.SuiteReport.{attr}")
                continue
            self._rebind_method(
                report, attr, "cli", "report", group="cli.report", size=lambda _, text: len(text.encode())
            )

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- result hooks ------------------------------------------------------------

    def _count_suite_bracket(self, _result) -> None:
        if self._outer["courant.suite"]:
            self.counts["courant.suite_brackets"] += 1

    def _count_suite_cases(self, result) -> None:
        self.counts["courant.suite_cases"] += sum(getattr(check, "cases", 0) for check in result)

    def _count_tuples(self, result) -> None:
        self.counts["nambu.fundamental_tuples"] += getattr(result, "cases", 0)

    # -- output ------------------------------------------------------------------

    def dump(self, path, meta: dict, jobs: list[dict]) -> None:
        """Write counters, self times, per-job records and spans as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "missing": self.missing,
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "group_s": dict(sorted(self.group_s.items())),
            "jobs": jobs,
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": [span for span in self.spans if span is not None],
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out, separators=(",", ":"))
