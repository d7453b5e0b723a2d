"""Spans around the public fkm_willmore functions, recorded from outside.

Every target is wrapped at the name its caller looks it up by: report.py
imports `certify_point` into its own namespace, so the span for that call
wraps `fkm_willmore.report.certify_point`, while the per-normal helpers are
wrapped in `fkm_willmore.willmore`, where `certify_point` finds them.  The
package source is never edited; `Tracer.install` patches the attributes and
`Tracer.uninstall` puts the originals back.

Span names have the form `module.function` (the module that defines the
function), so an in-program trace can later emit the same names.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

__all__ = ["Span", "TARGETS", "Tracer", "check_nesting", "median_summary",
           "self_times", "summarize"]


def _config_tag(system, *_args, **_kwargs) -> str:
    from fkm_willmore.clifford import delta
    return f"{system.m}-{system.l // delta(system.m)}"


def _iterations(point) -> int:
    return int(point.iterations)


# (module or class holding the looked-up name, attribute, span name,
#  tag from the call's arguments, value from the call's result)
TARGETS = (
    ("fkm_willmore.cli", "run_suite", "report.run_suite", None, None),
    ("fkm_willmore.report", "evaluate_system", "report.evaluate_system",
     _config_tag, None),
    ("fkm_willmore.report", "build_clifford_system",
     "clifford.build_clifford_system", None, None),
    ("fkm_willmore.report", "verify_clifford_relations",
     "clifford.verify_clifford_relations", None, None),
    ("fkm_willmore.report", "verify_cartan_munzner",
     "polynomial.verify_cartan_munzner", None, None),
    ("fkm_willmore.polynomial:FkmPolynomial", "sphere_derivatives",
     "polynomial.sphere_derivatives", None, None),
    ("fkm_willmore.report", "deterministic_seed", "focal.deterministic_seed",
     None, None),
    ("fkm_willmore.report", "sample_focal_points",
     "focal.sample_focal_points", None, None),
    ("fkm_willmore.focal", "project_to_focal", "focal.project_to_focal",
     None, _iterations),
    ("fkm_willmore.report", "tangent_jacobian_rank",
     "focal.tangent_jacobian_rank", None, None),
    ("fkm_willmore.report", "build_frame", "geometry.build_frame", None, None),
    ("fkm_willmore.report", "shape_operators", "geometry.shape_operators",
     None, None),
    ("fkm_willmore.report", "ricci_quadratic", "geometry.ricci_quadratic",
     None, None),
    ("fkm_willmore.willmore", "ricci_quadratic", "geometry.ricci_quadratic",
     None, None),
    ("fkm_willmore.report", "certify_point", "willmore.certify_point",
     None, None),
    ("fkm_willmore.willmore", "rotate_system", "clifford.rotate_system",
     None, None),
    ("fkm_willmore.willmore", "willmore_residual",
     "willmore.willmore_residual", None, None),
    ("fkm_willmore.willmore", "principal_decomposition",
     "willmore.principal_decomposition", None, None),
    ("fkm_willmore.willmore", "reflection_check", "willmore.reflection_check",
     None, None),
    ("fkm_willmore.willmore", "ricci_balance", "willmore.ricci_balance",
     None, None),
    ("fkm_willmore.willmore", "projection_balance",
     "willmore.projection_balance", None, None),
    ("fkm_willmore.willmore", "case_identities", "willmore.case_identities",
     None, None),
    ("fkm_willmore.report", "einstein_probe", "willmore.einstein_probe",
     None, None),
    ("fkm_willmore.report:VerificationReport", "to_json", "report.to_json",
     None, None),
)

# ricci_quadratic serves three checks; its spans are split by the caller.
RICCI_ROLES = {
    "report.evaluate_system": "crosscheck",
    "willmore.ricci_balance": "balance",
    "willmore.einstein_probe": "einstein",
}


class Span:
    """One call: name, start, end, index of the enclosing span (-1 at root)."""

    __slots__ = ("name", "parent", "tag", "start", "end", "failed", "value")

    def __init__(self, name: str, parent: int, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = self.end = 0.0
        self.failed = False
        self.value = None


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, fn, name: str, tag=None, value=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1,
                        tag(*args, **kwargs) if tag else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if value is not None:
                span.value = value(result)
            return result

        return traced

    def install(self) -> list:
        """Patch every target that exists; returns the span names skipped."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        missing = []
        for owner, attr, name, tag, value in TARGETS:
            holder = _resolve(owner)
            original = holder.__dict__.get(attr)
            if original is None:
                missing.append(name)
                continue
            setattr(holder, attr, self.wrap(original, name, tag, value))
            self._patched.append((holder, attr, original))
        return missing

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def check_nesting(spans: list, wall_s: float, slack_s: float = 1e-6) -> dict:
    """Check that the spans form a tree that accounts for `wall_s`.

    Children must lie inside their parent, self times must be non-negative,
    and the self times of all spans plus the untraced remainder (wall time
    outside every root span) must add up to the wall time.
    """
    own = self_times(spans)
    problems = []
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start - slack_s or s.end > p.end + slack_s:
                problems.append(f"span {i} ({s.name}) leaves its parent")
        if own[i] < -slack_s:
            problems.append(f"span {i} ({s.name}) has self time {own[i]:.3e}")
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    remainder = wall_s - roots
    if remainder < -slack_s:
        problems.append(f"root spans exceed the wall time by {-remainder:.3e}s")
    total = sum(own) + remainder
    if abs(total - wall_s) > slack_s + 1e-9 * len(spans):
        problems.append(f"self times sum to {total:.6f}s, wall {wall_s:.6f}s")
    return {"untraced_remainder_s": remainder, "self_sum_s": sum(own),
            "problems": problems[:10]}


def summarize(spans: list) -> dict:
    """Per-name totals: `<key>.calls`, `.failed`, `.s`, `.self_s`.

    Keys are span names, with ricci_quadratic split by caller
    (`geometry.ricci_quadratic.<role>`) and evaluate_system also kept per
    configuration (`report.evaluate_system.<m>-<k>`).  Spans that return a
    value (the Gauss-Newton iteration count) add `.value_sum` over the calls
    that succeeded.
    """
    own = self_times(spans)
    out: dict = {}

    def add(key, span, self_s):
        out[key + ".calls"] = out.get(key + ".calls", 0) + 1
        out[key + ".failed"] = out.get(key + ".failed", 0) + int(span.failed)
        out[key + ".s"] = out.get(key + ".s", 0.0) + (span.end - span.start)
        out[key + ".self_s"] = out.get(key + ".self_s", 0.0) + self_s
        if span.value is not None:
            out[key + ".value_sum"] = out.get(key + ".value_sum", 0) + span.value

    for span, self_s in zip(spans, own):
        add(span.name, span, self_s)
        if span.name == "geometry.ricci_quadratic":
            caller = spans[span.parent].name if span.parent >= 0 else ""
            add(f"{span.name}.{RICCI_ROLES.get(caller, 'other')}", span, self_s)
        if span.tag is not None:
            add(f"{span.name}.{span.tag}", span, self_s)
    return out


def median_summary(summaries: list) -> dict:
    """Metric-wise median over several traced runs' summaries."""
    keys = sorted(set().union(*summaries))
    return {k: statistics.median(s.get(k, 0) for s in summaries) for k in keys}
