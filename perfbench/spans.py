"""In-memory span tracing around ranknet's public functions.

The tracer never edits the program. It replaces module attributes (and the
method ``Network.arity_groups``) with wrappers that record one span per
call: name, start, end, parent span and operation id. Calls made through the
module attribute, by the benchmark or from inside ranknet, go through the
wrapper. Counts (comparators, index bytes, JSON bytes) are taken at once,
after the wrapped call returns, from level lengths, array shapes and string
lengths, and keep no reference to what they count; their cost lands in
the calling span's self time, or in the operation's remainder when no
wrapped function made the call. Spans stay in memory and are
written out once, at the end.
"""

from __future__ import annotations

import functools
import gc
import json
import time
import weakref

# (module, attribute, span name)
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("netbuild", "build_network", "netbuild.build"),
    ("netbuild", "validate_network", "netbuild.validate"),
    ("netbuild", "network_to_json", "netbuild.json"),
    ("netbuild", "network_from_json", "netbuild.json"),
    ("engine", "execute", "engine.execute"),
    ("engine", "apply_permutation", "engine.apply_permutation"),
    ("engine", "partial_rank_table", "engine.partial_rank_table"),
    ("analytics", "complexity_profile", "analytics.profile"),
]

# span name -> self-time metric, in ms per timed operation
SELF_TIME_METRICS = {
    "cli.main": "cli.self_ms",
    "netbuild.build": "netbuild.build_ms",
    "netbuild.arity_groups": "netbuild.arity_groups_ms",
    "netbuild.validate": "netbuild.validate_ms",
    "netbuild.json": "netbuild.json_ms",
    "engine.execute": "engine.execute_ms",
    "engine.apply_permutation": "engine.apply_permutation_ms",
    "engine.partial_rank_table": "engine.partial_rank_table_ms",
    "analytics.profile": "analytics.profile_ms",
}

# counts and CPU time, summed over spans, per timed operation
COUNT_METRICS = [
    "netbuild.comparators",
    "netbuild.index_bytes",
    "netbuild.json_bytes",
    "engine.execute_cpu_ms",
    "engine.comparator_evals",
    "engine.index_bytes_read",
]

# the same layers during set-up, per set-up: execute_warm builds there
SETUP_METRICS = {
    "netbuild.build_ms": "setup.build_ms",
    "netbuild.arity_groups_ms": "setup.arity_groups_ms",
    "netbuild.comparators": "setup.comparators",
    "netbuild.index_bytes": "setup.index_bytes",
}

PER_LAYER = (
    list(SELF_TIME_METRICS.values())
    + COUNT_METRICS
    + list(SETUP_METRICS.values())
    + ["gc.pause_ms", "op_ms", "remainder_ms"]
)


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "bytes" if "bytes" in metric else "count"


def _utf8_len(text) -> int:
    if isinstance(text, str):
        return len(text) if text.isascii() else len(text.encode())
    return len(text)


class Tracer:
    """Spans and counts of one benchmark process.

    ``op`` names the operation in progress: an int for a timed operation,
    ``"setup"`` during set-up, and None between operations, where calls
    (the output checks) are not counted.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []  # (name, start, end, parent, op)
        self.counts: list = []  # (op, metric, value)
        self.gc_pauses: list = []  # (op, seconds)
        self.op = None
        self._stack: list = []
        self._gc_start = None
        self._laid_out = weakref.WeakValueDictionary()
        self._restore: list = []
        self._arity_groups = modules["netbuild"].Network.arity_groups

    def install(self):
        for mod_name, attr, span in WRAPPED:
            self._patch(self.modules[mod_name], attr, span)
        self._patch(self.modules["netbuild"].Network, "arity_groups", "netbuild.arity_groups")
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr, span):
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(span, orig, getattr(self, "_after_" + attr, None)))

    def _wrap(self, span, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                tracer._stack.pop()
                tracer.spans[sid] = (span, t0, t1, parent, tracer.op)
            if after is not None:
                after(args, result, cpu1 - cpu0)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append((self.op, time.perf_counter() - self._gc_start))
            self._gc_start = None

    # -- counts, O(levels) at most ------------------------------------------

    def _after_build_network(self, args, net, cpu):
        comparators = sum(len(level.comparators) for level in net.levels)
        self.counts.append((self.op, "netbuild.comparators", comparators))

    def _after_arity_groups(self, args, groups, cpu):
        net = args[0]
        if self._laid_out.get(id(net)) is not net:  # first layout of this network
            self._laid_out[id(net)] = net
            self.counts.append(
                (self.op, "netbuild.index_bytes", sum(g.nbytes for g in groups.values()))
            )

    def _after_network_to_json(self, args, text, cpu):
        self.counts.append((self.op, "netbuild.json_bytes", _utf8_len(text)))

    def _after_execute(self, args, pi, cpu):
        self.counts.append((self.op, "engine.execute_cpu_ms", cpu * 1e3))
        shapes = [g.shape for g in self._arity_groups(args[0]).values()]
        self.counts.append((self.op, "engine.comparator_evals", sum(m for m, _ in shapes)))
        self.counts.append(
            (self.op, "engine.index_bytes_read", sum(m * k * 8 for m, k in shapes))
        )

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """(name, op, self seconds) per span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [
            (name, op, (t1 - t0) - child[i])
            for i, (name, t0, t1, parent, op) in enumerate(self.spans)
        ]

    def metrics(self, n_ops: int, n_setups: int, op_seconds: float) -> dict:
        timed: dict = {}
        setup: dict = {}

        def add(op, metric, value):
            if op is None:
                return
            target = setup if op == "setup" else timed
            target[metric] = target.get(metric, 0) + value

        for name, op, dt in self.self_times():
            add(op, SELF_TIME_METRICS[name], dt * 1e3)
        for op, metric, value in self.counts:
            add(op, metric, value)
        for op, dt in self.gc_pauses:
            add(op, "gc.pause_ms", dt * 1e3)

        out = {m: timed.get(m, 0) / n_ops for m in SELF_TIME_METRICS.values()}
        out.update({m: timed.get(m, 0) / n_ops for m in COUNT_METRICS})
        out.update({m: setup.get(src, 0) / n_setups for src, m in SETUP_METRICS.items()})
        out["gc.pause_ms"] = timed.get("gc.pause_ms", 0) / n_ops
        out["op_ms"] = op_seconds * 1e3 / n_ops
        out["remainder_ms"] = out["op_ms"] - sum(out[m] for m in SELF_TIME_METRICS.values())
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                doc = {"name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                fh.write(json.dumps(doc) + "\n")
