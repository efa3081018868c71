"""Outside-in tracing of lgc's layers and the per-layer metrics derived from it.

The tracer replaces module-level names with wrappers that record one span
per call: (name, start, end, parent, work, tag).  The name is patched in
the namespace of the module that calls it, because `scheme` binds
`closest_points_batch`, `closest_point`, `_enum_nearest` and `build_spec`
by name at import time.  `work` is the count the call did (rows, nodes,
points, draws) and `tag` carries what a metric needs to group by.  Spans
stay in memory until the instance ends; `layer_metrics` derives self
times and ratios from them.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import statistics
from collections import defaultdict
from time import perf_counter


def _rows(args, res) -> int:
    return int(res.shape[0])


def _nodes(args, res) -> int:
    return int(res[2])


def _points(args, res) -> int:
    return int(res[1].size)


def _table_points(args, res) -> int:
    return 0 if res.table_coeffs is None else int(res.table_coeffs.shape[0])


def _spec_tag(args, res) -> str:
    return f"{res.backend}:{res.deficit!r}"


def _backend(args, res) -> str:
    return args[0].backend


def _flatness_key(args, res) -> str:
    lat, sigma = args[0], float(args[1])
    return hashlib.sha1(lat.basis.tobytes() + repr(sigma).encode()).hexdigest()[:16]


# (module, attribute, span name, work, tag)
PATCHES = (
    ("lgc.cli", "main", "cli.main", None, None),
    ("lgc.cli", "sandwich_check", "scheme.sandwich_check", None, None),
    ("lgc.scheme", "simulate_error", "scheme.simulate_error", None, None),
    ("lgc.scheme", "simulate_poltyrev", "scheme.simulate_poltyrev", None, None),
    ("lgc.scheme", "decode_agreement", "scheme.decode_agreement", None, None),
    ("lgc.scheme", "map_decode", "scheme.map_decode", None, None),
    ("lgc.scheme", "mmse_decode", "scheme.mmse_decode", None, None),
    ("lgc.scheme", "closest_points_batch", "lattice.closest_points_batch",
     _rows, None),
    ("lgc.scheme", "closest_point", "lattice.closest_point", None, None),
    ("lgc.scheme", "_enum_nearest", "lattice._enum_nearest", _nodes, None),
    ("lgc.lattice", "_enum_nearest", "lattice._enum_nearest", _nodes, None),
    ("lgc.scheme", "build_spec", "sampler.build_spec", _table_points, _spec_tag),
    ("lgc.sampler", "build_spec", "sampler.build_spec", _table_points, _spec_tag),
    ("lgc.scheme", "sample_coeffs", "sampler.sample_coeffs", _rows, _backend),
    ("lgc.sampler", "_draw_axes", "sampler._draw_axes", _rows, None),
    ("lgc.sampler", "enumerate_ball", "lattice.enumerate_ball", _points, None),
    ("lgc.analytics", "enumerate_ball", "lattice.enumerate_ball", _points, None),
    ("lgc.analytics", "flatness", "analytics.flatness", None, _flatness_key),
    ("lgc.scheme", "flatness", "analytics.flatness", None, _flatness_key),
    ("lgc.construction_a", "flatness", "analytics.flatness", None,
     _flatness_key),
    ("lgc.analytics", "_gauss_sum", "analytics._gauss_sum", None, None),
    ("lgc.analytics", "_support_stats", "analytics._support_stats", None, None),
    ("lgc.analytics", "_axis_sums", "analytics._axis_sums", None, None),
    ("lgc.analytics", "partition_sandwich_check",
     "analytics.partition_sandwich_check", None, None),
    ("lgc.analytics", "moment_check", "analytics.moment_check", None, None),
    ("lgc.analytics", "entropy_check", "analytics.entropy_check", None, None),
    ("lgc.analytics", "entropy_deviation", "analytics.entropy_deviation",
     None, None),
    ("lgc.construction_a", "ensemble_search", "construction_a.ensemble_search",
     None, None),
    ("lgc.construction_a", "lift", "construction_a.lift", None, None),
    ("lgc.construction_a", "random_code", "construction_a.random_code",
     None, None),
)


class Tracer:
    """Span recorder for one instance; `install` patches every name in PATCHES."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def install(self) -> None:
        for mod_name, attr, name, work, tag in PATCHES:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), work, tag))

    def _wrap(self, name, fn, work, tag):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, 0, "")
            if work or tag:
                spans[sid] = (name, start, end, parent,
                              work(args, res) if work else 0,
                              tag(args, res) if tag else "")
            return res

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("run_id", "span", "parent", "name", "start", "end",
                          "work", "tag"))
            for sid, (name, start, end, parent, work, tag) in enumerate(self.spans):
                out.writerow((self.run_id, sid, parent, name, repr(start),
                              repr(end), work, tag))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one instance, keyed by metric name."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    by_name = defaultdict(list)
    for sid, (name, _, _, parent, _, _) in enumerate(spans):
        by_name[name].append(sid)
        if parent >= 0:
            child[parent] += dur[sid]

    def ids(name, parents=None, inside=True):
        out = by_name[name]
        if parents is None:
            return out
        return [i for i in out
                if (spans[i][3] >= 0 and spans[spans[i][3]][0] in parents) == inside]

    def count(name, **kw):
        return len(ids(name, **kw))

    def secs(name, **kw):
        return sum(dur[i] for i in ids(name, **kw))

    def self_secs(*names):
        return sum(dur[i] - child[i] for n in names for i in by_name[n])

    def work(name, **kw):
        return sum(spans[i][4] for i in ids(name, **kw))

    batch = ("lattice.closest_points_batch",)
    sums = ("analytics._gauss_sum", "analytics._support_stats")
    sims = ("scheme.simulate_error", "scheme.simulate_poltyrev")
    rows = work(batch[0])
    batch_s = secs(batch[0])
    hard = count("lattice._enum_nearest", parents=batch)
    hard_nodes = work("lattice._enum_nearest", parents=batch)
    fallback_s = secs("lattice._enum_nearest", parents=batch)
    searches = count("lattice._enum_nearest", parents=batch, inside=False)
    search_nodes = work("lattice._enum_nearest", parents=batch, inside=False)
    ball_points = work("lattice.enumerate_ball")
    ball_s = secs("lattice.enumerate_ball")

    m = {
        "lattice.batch_rows": rows,
        "lattice.batch_s": batch_s,
        "lattice.batch_rows_per_s": _ratio(rows, batch_s),
        "lattice.hard_rows": hard,
        "lattice.hard_frac": _ratio(hard, rows),
        "lattice.fallback_nodes": hard_nodes,
        "lattice.nodes_per_hard_row": _ratio(hard_nodes, hard),
        "lattice.fallback_s": fallback_s,
        "lattice.certified_s": self_secs(*batch),
        "lattice.closest_point_calls": count("lattice.closest_point"),
        "lattice.closest_point_s": secs("lattice.closest_point"),
        "lattice.search_calls": searches,
        "lattice.search_nodes": search_nodes,
        "lattice.nodes_per_search": _ratio(search_nodes, searches),
        "lattice.enum_ball_calls": count("lattice.enumerate_ball"),
        "lattice.enum_ball_points": ball_points,
        "lattice.enum_ball_points_per_s": _ratio(ball_points, ball_s),
        "lattice.enum_ball_s": ball_s,
    }

    specs = by_name["sampler.build_spec"]
    draws = work("sampler.sample_coeffs")
    m.update({
        "sampler.build_spec_s": secs("sampler.build_spec"),
        "sampler.table_points": work("sampler.build_spec"),
        "sampler.deficit": max((float(spans[i][5].split(":", 1)[1])
                                for i in specs), default=0.0),
        "sampler.draws": draws,
    })
    for backend in ("table", "parity", "product"):
        picked = [i for i in by_name["sampler.sample_coeffs"]
                  if spans[i][5] == backend]
        m[f"sampler.draws_per_s.{backend}"] = _ratio(
            sum(spans[i][4] for i in picked), sum(dur[i] for i in picked))
    parity = {i for i in by_name["sampler.sample_coeffs"]
              if spans[i][5] == "parity"}
    parity_rows = sum(spans[i][4] for i in parity)
    candidates = sum(spans[i][4] for i in by_name["sampler._draw_axes"]
                     if spans[i][3] in parity)
    m["sampler.parity_accept_frac"] = _ratio(parity_rows, candidates)

    flat = by_name["analytics.flatness"]
    seen: set = set()
    repeats = 0
    for i in flat:
        repeats += spans[i][5] in seen
        seen.add(spans[i][5])
    flat_s = secs("analytics.flatness")
    n_sums = sum(count(n) for n in sums)
    m.update({
        "analytics.flatness_calls": len(flat),
        "analytics.flatness_s": flat_s,
        "analytics.flatness_ms_per_call": 1e3 * _ratio(flat_s, len(flat)),
        "analytics.flatness_repeat_frac": _ratio(repeats, len(flat)),
        "analytics.enum_ball_calls_per_sum": _ratio(
            count("lattice.enumerate_ball", parents=sums), n_sums),
        "analytics.mp_lemma_s": secs("analytics._axis_sums"),
        "scheme.sim_s": sum(secs(n) for n in sims),
        "scheme.sim_self_s": self_secs(*sims),
        "scheme.map_decode_calls": count("scheme.map_decode"),
        "scheme.map_decode_s": secs("scheme.map_decode"),
        "scheme.mmse_decode_s": secs("scheme.mmse_decode"),
        "construction_a.lift_s": secs("construction_a.lift"),
        "construction_a.random_code_s": secs("construction_a.random_code"),
        "cli.self_s": self_secs("cli.main"),
    })
    return m


# counters that must repeat exactly for a fixed seed and size
EXACT = ("lattice.batch_rows", "lattice.hard_rows", "lattice.hard_frac",
         "lattice.fallback_nodes", "lattice.closest_point_calls",
         "lattice.search_calls", "lattice.search_nodes",
         "lattice.enum_ball_calls", "lattice.enum_ball_points",
         "sampler.table_points", "sampler.draws", "analytics.flatness_calls",
         "scheme.map_decode_calls")

UNITS = {
    "lattice.batch_rows": "count", "lattice.batch_s": "s",
    "lattice.batch_rows_per_s": "1/s", "lattice.hard_rows": "count",
    "lattice.hard_frac": "ratio", "lattice.fallback_nodes": "count",
    "lattice.nodes_per_hard_row": "count", "lattice.fallback_s": "s",
    "lattice.certified_s": "s", "lattice.closest_point_calls": "count",
    "lattice.closest_point_s": "s", "lattice.search_calls": "count",
    "lattice.search_nodes": "count", "lattice.nodes_per_search": "count",
    "lattice.enum_ball_calls": "count", "lattice.enum_ball_points": "count",
    "lattice.enum_ball_points_per_s": "1/s", "lattice.enum_ball_s": "s",
    "sampler.build_spec_s": "s", "sampler.table_points": "count",
    "sampler.deficit": "ratio", "sampler.draws": "count",
    "sampler.draws_per_s.table": "1/s", "sampler.draws_per_s.parity": "1/s",
    "sampler.draws_per_s.product": "1/s", "sampler.parity_accept_frac": "ratio",
    "analytics.flatness_calls": "count", "analytics.flatness_s": "s",
    "analytics.flatness_ms_per_call": "ms",
    "analytics.flatness_repeat_frac": "ratio",
    "analytics.enum_ball_calls_per_sum": "count", "analytics.mp_lemma_s": "s",
    "scheme.sim_s": "s", "scheme.sim_self_s": "s",
    "scheme.map_decode_calls": "count", "scheme.map_decode_s": "s",
    "scheme.mmse_decode_s": "s", "construction_a.lift_s": "s",
    "construction_a.random_code_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def combine(per_instance: list) -> dict:
    """One value per metric over traced instances: counts from the first, times as medians."""
    first = per_instance[0]
    return {k: first[k] if k in EXACT else statistics.median(m[k] for m in per_instance)
            for k in first}
