"""In-memory span tracer for the traced benchmark run.

The tracer wraps coharq's public layer functions from outside the package:
each entry of BINDINGS names a function as bound in the module that calls
it, so the wrapper sees exactly the calls that module makes. Spans (name,
start, end, parent span, operation id) are kept in flat arrays while the
run lasts and written out at the end. A layer's self time is the duration
of its spans minus the part covered by their child spans.

Private helpers are not wrapped; their cost shows as self time of the
public caller. Work the tracer itself does after a call returns (counting
words, active rows, distinct arguments) is recorded as a child span named
BOOKKEEPING, so it never inflates a layer's self time.
"""

import importlib
import inspect
import json
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np

LAYERS = ("fading", "montecarlo", "analytic", "special", "protocol", "rates", "cli")
BOOKKEEPING = "trace.bookkeeping"

# numpy's Philox4x64 produces four 64-bit words per counter block;
# fading.uniform_block pads every trial to whole blocks.
PHILOX_WORDS_PER_BLOCK = 4

# (module, attribute, span name). The attribute is the name the calling
# module looks up at call time.
BINDINGS = (
    ("coharq.montecarlo", "gain_block", "fading.gain_block"),
    ("coharq.montecarlo", "matrix_block", "fading.matrix_block"),
    ("coharq.montecarlo", "uniform_block", "fading.uniform_block"),
    ("coharq.montecarlo", "simulate_rounds", "montecarlo.simulate_rounds"),
    ("coharq.montecarlo", "simulate_batch", "montecarlo.simulate_batch"),
    ("coharq.montecarlo", "estimates_from_stats", "montecarlo.estimates_from_stats"),
    ("coharq.montecarlo", "estimate", "montecarlo.estimate"),
    ("coharq.cli", "estimate", "montecarlo.estimate"),
    ("coharq.montecarlo", "sweep", "montecarlo.sweep"),
    ("coharq.montecarlo", "analytic_counterparts", "analytic.counterparts"),
    ("coharq.cli", "analytic_counterparts", "analytic.counterparts"),
    ("coharq.analytic", "event_table", "analytic.event_table"),
    ("coharq.analytic", "cdf_rtd_sum", "analytic.cdf_rtd_sum"),
    ("coharq.analytic", "cdf_inr_sum", "analytic.cdf_inr_sum"),
    ("coharq.analytic", "gammainc_lower", "special.gammainc_lower"),
    ("coharq.protocol", "run_packet", "protocol.run_packet"),
    ("coharq.protocol", "u_rtd", "rates.u_rtd"),
    ("coharq.protocol", "u_inr", "rates.u_inr"),
    ("coharq.protocol", "mimo_rate_rtd", "rates.mimo_rate_rtd"),
    ("coharq.protocol", "mimo_rate_inr", "rates.mimo_rate_inr"),
    ("coharq.cli", "optimize_rates", "cli.optimize_rates"),
    ("coharq.cli", "emit_csv", "cli.emit_csv"),
)


class TraceError(RuntimeError):
    """A binding the tracer must wrap does not exist."""


def _philox_words(n_trials: int, words: int) -> int:
    return n_trials * -(-words // PHILOX_WORDS_PER_BLOCK) * PHILOX_WORDS_PER_BLOCK


def _observe_gain(tr, a, result):
    tr.counters["philox_words"] += _philox_words(a["n_trials"], 1)


def _observe_matrix(tr, a, result):
    p = a["profile"]
    tr.counters["philox_words"] += _philox_words(a["n_trials"],
                                                 2 * p.rx_antennas * p.tx_antennas)


def _observe_uniform(tr, a, result):
    tr.counters["philox_words"] += _philox_words(a["n_trials"], a["words"])


def _observe_rounds(tr, a, result):
    n = a["n_trials"]
    m_max = a["config"].max_rounds
    tr.counters["packets"] += n
    tr.counters["slot_rows"] += n * (m_max - 1)
    for s in range(1, m_max):
        # a trial still needs slot s when some user is in outage (0) or
        # decodes only after round s
        tr.counters["active_rows"] += int(np.any((result == 0) | (result > s), axis=1).sum())


def _observe_batch(tr, a, result):
    tr.counters["batch_packets"] += a["n_trials"]


def _observe_cdf_inr(tr, a, result):
    lam1, lam2 = a["lambdas"]
    tr.inr_args.add((a["n"], a["m"], float(lam1), float(lam2),
                     float(a["power"]), float(a["x"])))


def _observe_emit(tr, a, result):
    tr.counters["csv_rows"] += len(a["rows"])


OBSERVERS = {
    "fading.gain_block": _observe_gain,
    "fading.matrix_block": _observe_matrix,
    "fading.uniform_block": _observe_uniform,
    "montecarlo.simulate_rounds": _observe_rounds,
    "montecarlo.simulate_batch": _observe_batch,
    "analytic.cdf_inr_sum": _observe_cdf_inr,
    "cli.emit_csv": _observe_emit,
}


class NullTracer:
    """Stands in for the tracer in untraced repetitions: records nothing."""

    def installed(self):
        return nullcontext()

    def operation(self, name):
        return nullcontext()

    def count(self, key, value):
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = -1
        self._next_op = 0
        self.counters = {key: 0 for key in (
            "philox_words", "packets", "slot_rows", "active_rows", "batch_packets",
            "csv_rows", "oracle_mismatches")}
        self.inr_args = set()
        self._bindings = self._resolve()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def _resolve(self):
        found = []
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"cannot trace {module_name}.{attr}: no such function")
            found.append((module, attr, fn, self._wrap(span, fn)))
        return found

    def _wrap(self, span: str, fn):
        name_id = self._name_id(span)
        book_id = self._name_id(BOOKKEEPING)
        observe = OBSERVERS.get(span)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                bid = self._open(book_id)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
                self._close(bid)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding by its traced wrapper until the block ends."""
        for module, attr, _, traced in self._bindings:
            setattr(module, attr, traced)
        try:
            yield
        finally:
            for module, attr, fn, _ in self._bindings:
                setattr(module, attr, fn)

    @contextmanager
    def operation(self, name: str):
        """Root span for one benchmark operation; its spans share the op id."""
        prev = self._op
        self._op = self._next_op
        self._next_op += 1
        sid = self._open(self._name_id("bench." + name))
        try:
            yield
        finally:
            self._close(sid)
            self._op = prev

    def count(self, key: str, value) -> None:
        self.counters[key] += value

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        """Span name ids, parent ids, durations, and durations net of the
        tracer's own bookkeeping anywhere below each span."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        book = np.where(name == self._ids[BOOKKEEPING], dur, 0.0).tolist()
        # children are opened after their parents, so a reverse sweep sees
        # every child before its parent
        parents = parent.tolist()
        for i in range(len(book) - 1, -1, -1):
            if parents[i] >= 0 and book[i]:
                book[parents[i]] += book[i]
        return name, parent, dur, dur - np.asarray(book)

    def span_table(self) -> dict:
        """{span name: (count, total seconds, self seconds)}; totals exclude
        the tracer's bookkeeping."""
        if not self.start:
            return {}
        name, parent, dur, net = self._arrays()
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=net, minlength=k)
        selfs = np.bincount(name, weights=dur - covered, minlength=k)
        return {self.names[i]: (int(counts[i]), float(totals[i]), float(selfs[i]))
                for i in range(k) if counts[i] and self.names[i] != BOOKKEEPING}

    def _total_under(self, span: str, parent_span: str) -> float:
        # total time of `span` spans whose direct parent is a `parent_span` span
        if not self.start:
            return 0.0
        name, parent, _, net = self._arrays()
        mask = (name == self._ids[span]) & (parent >= 0)
        mask[mask] = name[parent[mask]] == self._ids[parent_span]
        return float(net[mask].sum())

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; zero where a layer did
        not run on the workload (ratios with an empty base included)."""
        spans = self.span_table()
        c = self.counters

        def count(span):
            return spans.get(span, (0, 0.0, 0.0))[0]

        def total(span):
            return spans.get(span, (0, 0.0, 0.0))[1]

        def self_s(span):
            return spans.get(span, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        rates_spans = ("rates.u_rtd", "rates.u_inr", "rates.mimo_rate_rtd", "rates.mimo_rate_inr")
        fading_spans = ("fading.gain_block", "fading.matrix_block", "fading.uniform_block")
        out = {
            "fading.gain_s": (total("fading.gain_block"), "s"),
            "fading.matrix_s": (total("fading.matrix_block"), "s"),
            "fading.policy_s": (total("fading.uniform_block"), "s"),
            "fading.calls": (sum(count(s) for s in fading_spans), "count"),
            "fading.words_per_packet": (ratio(c["philox_words"], c["packets"]), "words/packet"),
            "montecarlo.rounds_self_s": (self_s("montecarlo.simulate_rounds"), "s"),
            "montecarlo.rounds_pkts_per_s": (ratio(c["packets"], total("montecarlo.simulate_rounds")),
                                             "packets/s"),
            "montecarlo.reduce_s": (self_s("montecarlo.simulate_batch"), "s"),
            "montecarlo.estimate_s": (total("montecarlo.estimates_from_stats"), "s"),
            "montecarlo.calls": (count("montecarlo.simulate_batch"), "count"),
            "montecarlo.packets_per_call": (ratio(c["batch_packets"], count("montecarlo.simulate_batch")),
                                            "packets"),
            "montecarlo.active_row_share": (ratio(c["active_rows"], c["slot_rows"]), "share"),
            "analytic.event_table_s": (total("analytic.event_table"), "s"),
            "analytic.event_table_calls": (count("analytic.event_table"), "count"),
            "analytic.cdf_rtd_s": (total("analytic.cdf_rtd_sum"), "s"),
            "analytic.cdf_rtd_calls": (count("analytic.cdf_rtd_sum"), "count"),
            "analytic.cdf_inr_s": (total("analytic.cdf_inr_sum"), "s"),
            "analytic.cdf_inr_calls": (count("analytic.cdf_inr_sum"), "count"),
            "analytic.cdf_inr_distinct_share": (ratio(len(self.inr_args), count("analytic.cdf_inr_sum")),
                                                "share"),
            "analytic.counterparts_s": (self._total_under("analytic.counterparts", "montecarlo.sweep"),
                                        "s"),
            "special.gammainc_s": (total("special.gammainc_lower"), "s"),
            "special.gammainc_calls": (count("special.gammainc_lower"), "count"),
            "protocol.run_packet_pkts_per_s": (ratio(count("protocol.run_packet"),
                                                     total("protocol.run_packet")), "packets/s"),
            "protocol.oracle_mismatches": (c["oracle_mismatches"], "count"),
            "rates.scalar_s": (sum(total(s) for s in rates_spans), "s"),
            "rates.calls": (sum(count(s) for s in rates_spans), "count"),
            "cli.optimize_s": (total("cli.optimize_rates"), "s"),
            "cli.emit_csv_s": (total("cli.emit_csv"), "s"),
            "cli.rows": (c["csv_rows"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(v[2] for k, v in spans.items()
                                          if k.startswith(layer + ".")), "s")
        out["trace.spans"] = (len(self.start), "count")
        return out

    def write(self, npz_path, json_path, extra: dict) -> None:
        """Write every span (npz) and the per-span summary (json)."""
        np.savez_compressed(
            npz_path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))
        summary = dict(extra)
        summary["spans"] = {k: {"count": n, "total_s": t, "self_s": s}
                            for k, (n, t, s) in sorted(self.span_table().items())}
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=1)


def format_span_table(spans: dict) -> str:
    lines = [f"{'span':40s} {'count':>9s} {'total_s':>10s} {'self_s':>10s}"]
    for k, (n, t, s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{k:40s} {n:9d} {t:10.4f} {s:10.4f}")
    return "\n".join(lines)
