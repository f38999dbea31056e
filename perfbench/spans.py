"""Per-layer metrics from the engine's Chrome trace files (trace::recorder).

The program records spans (B/E pairs per thread track), counters and
instants; this module rebuilds the span tree per track and sums what each
per-layer metric needs, per timed operation. Operations are found as scopes:
one `engine:check_deck_plans` span per signoff run, one `serve:request` span
per recheck (or edit) of the benchmark's session on the server.
"""
import bisect
import json
import statistics

EDIT, RECHECK = 3, 4  # serve protocol msg_type values
SESSION = 1           # the session the timed operations address


def load(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans, instants = [], []
    stacks = {}
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E", "i"):
            continue
        tid, ts = e["tid"], float(e["ts"])
        key = e["cat"] + ":" + e["name"]
        if ph == "i":
            instants.append((key, ts, e.get("args", {})))
            continue
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            spans.append({"key": key, "tid": tid, "t0": ts, "t1": None,
                          "args": e.get("args", {}), "parent": stack[-1] if stack else None,
                          "child_us": 0.0})
            stack.append(len(spans) - 1)
            continue
        for depth in range(len(stack) - 1, -1, -1):
            if spans[stack[depth]]["key"] == key:
                idx = stack[depth]
                del stack[depth:]
                spans[idx]["t1"] = ts
                parent = spans[idx]["parent"]
                if parent is not None:
                    spans[parent]["child_us"] += ts - spans[idx]["t0"]
                break
    return [s for s in spans if s["t1"] is not None], instants


def dur_ms(s):
    return (s["t1"] - s["t0"]) / 1000.0


def union_ms(intervals):
    total, end = 0.0, None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total / 1000.0


class Scopes:
    """Disjoint time intervals (the operations are issued one at a time)."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: s["t0"])
        self.starts = [s["t0"] for s in self.spans]

    def __len__(self):
        return len(self.spans)

    def holds(self, t):
        i = bisect.bisect_right(self.starts, t) - 1
        return i >= 0 and t <= self.spans[i]["t1"]


def layer_metrics(path, workload, raw):
    spans, instants = load(path)
    serve = workload.startswith("serve")
    if serve:
        requests = [s for s in spans if s["key"] == "serve:request"
                    and s["args"].get("session") == SESSION]
        scopes = Scopes([s for s in requests if s["args"].get("type") == RECHECK])
        edits = Scopes([s for s in requests if s["args"].get("type") == EDIT])
        outer = [s for s in spans if s["key"] == "serve:recheck" and scopes.holds(s["t0"])]
    else:
        scopes = Scopes([s for s in spans if s["key"] == "engine:check_deck_plans"])
        outer = scopes.spans
    n = max(1, len(scopes))

    def within(key):
        return [s for s in spans if s["key"] == key and scopes.holds(s["t0"])]

    def per_op(key):
        return sum(dur_ms(s) for s in within(key)) / n

    packs = within("pipeline:pack")
    groups = within("engine:run_pair_group")
    engines = groups + within("engine:run_intra_plan")
    global_ms = []
    for o in outer:
        busy = [(s["t0"], s["t1"]) for s in engines if o["t0"] <= s["t0"] <= o["t1"]]
        global_ms.append(dur_ms(o) - union_ms(busy))

    def instant_sum(key):
        return sum(a.get("delta", 0) for k, t, a in instants if k == key and scopes.holds(t)) / n

    m = {
        "pipeline.pack_ms": per_op("pipeline:pack"),
        "pipeline.pack_max_ms": max((dur_ms(s) for s in packs), default=0.0),
        "engine.pair_group_ms": per_op("engine:run_pair_group"),
        "engine.pair_group_self_ms":
            sum(dur_ms(s) - s["child_us"] / 1000.0 for s in groups) / n,
        "pipeline.device_wait_ms": per_op("pipeline:device_wait"),
        "device.kernel_ms": per_op("device:kernel"),
        "pipeline.partition_ms": per_op("pipeline:partition"),
        "engine.intra_ms": per_op("engine:run_intra_plan"),
        "engine.global_ms": statistics.mean(global_ms) if global_ms else 0.0,
        "sweep.edges_uploaded": instant_sum("sweep:edges_uploaded"),
    }
    if not serve:
        for k in ("serve.apply_ms", "serve.recheck_ms", "serve.wire_ms", "subs.push_lag_ms",
                  "serve.windows_per_recheck", "serve.purged_per_recheck",
                  "serve.inserted_per_recheck", "serve.open_s"):
            m[k] = 0.0
        return m

    def median_ms(items):
        return statistics.median([dur_ms(s) for s in items]) if items else 0.0

    applies = [s for s in spans if s["key"] == "serve:apply_edits" and edits.holds(s["t0"])]
    cold = [s for s in spans if s["key"] == "snapshot:cold_build"]
    full = [s for s in spans if s["key"] == "serve:full_check"]
    m.update({
        "serve.apply_ms": median_ms(applies),
        "serve.recheck_ms": median_ms(outer),
        # Client round trip minus the session's own work for both requests.
        "serve.wire_ms": (raw["rtt_edit_p50_ms"] - median_ms(applies))
                         + (raw["rtt_recheck_p50_ms"] - median_ms(outer)),
        "sweep.edge_pairs_tested": instant_sum("sweep:edge_pairs_tested"),
        "device.kernels_launched": len(within("device:kernel")) / n,
        "device.bytes_h2d": sum(s["args"].get("bytes", 0) for s in within("device:h2d")) / n,
        "engine.snapshot_s": dur_ms(cold[0]) / 1000.0 if cold else 0.0,
        "engine.check_s": dur_ms(full[0]) / 1000.0 if full else 0.0,
        # A serve session writes no report.
        "report.write_s": 0.0,
    })
    return m
