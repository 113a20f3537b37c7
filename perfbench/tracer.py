"""Outside-in span tracer for the coxkit layers.

install() rebinds every public function of the layer modules wherever a
coxkit namespace holds it (the package re-exports and the copies other
modules took with `from .x import y`), plus the FiniteGroup
classmethods, to a wrapper that records a span.  Nothing under src/
changes, and the untraced benchmark never imports this module.

Time is charged event by event to the layer on top of the span stack,
so a layer's self time is its span time minus the child spans of other
layers.  A function's self time is charged the same way, counting only
its outermost active span so recursion is not counted twice.  Spans
that cross into another layer are kept in memory (up to a cap) and
written out when the run ends.
"""

import functools
import inspect
import json
import statistics
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("diagram", "words", "finite", "parabolic", "evenconj", "quotients",
          "autcompat", "cli")
CLI_COMMANDS = ("classify", "reduce", "conj", "pc", "retract", "separate",
                "autcheck", "smallwords")
SPAN_CAP = 100000
BENCH = "bench"


def _kind(obj):
    return type(obj).__name__


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []            # frames: [layer, name, span index, crossing]
        self.last = self.clock()
        self.layer_self = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.layer_calls = Counter()
        self.fn_calls = Counter()
        self.events = Counter()
        self.spans = []
        self.dropped = 0
        self.query = None
        self.cli_ms = defaultdict(list)
        self.rows_built = defaultdict(set)
        self.cache_entries = 0
        self._live = {}
        self._undo = []
        self._wrapped = {}

    # -- time accounting --------------------------------------------------

    def _charge(self, now):
        dt = now - self.last
        self.last = now
        stack = self.stack
        if not stack:
            self.layer_self[BENCH] += dt
            return
        layer = stack[-1][0]
        self.layer_self[layer] += dt
        seen = set()
        for frame in reversed(stack):
            if frame[0] != layer:
                break
            if frame[1] not in seen:
                seen.add(frame[1])
                self.fn_self[frame[1]] += dt

    def _enter(self, layer, name):
        now = self.clock()
        self._charge(now)
        stack = self.stack
        parent_layer = stack[-1][0] if stack else BENCH
        parent_span = stack[-1][2] if stack else -1
        span = parent_span
        if parent_layer != layer:
            self.layer_calls[layer] += 1
            if len(self.spans) < SPAN_CAP:
                span = len(self.spans)
                self.spans.append([name, now, None, parent_span, self.query])
            else:
                self.dropped += 1
        self.fn_calls[name] += 1
        stack.append([layer, name, span, parent_layer != layer])
        return now

    def _exit(self):
        now = self.clock()
        self._charge(now)
        layer, name, span, crossing = self.stack.pop()
        if crossing and span >= 0:
            self.spans[span][2] = now
        return now, crossing

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        name = "%s.%s" % (layer, fn.__name__)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = observe.pre(tracer, args) if observe is not None else None
            start = tracer._enter(layer, name)
            try:
                res = fn(*args, **kwargs)
            except Exception as e:
                _, crossing = tracer._exit()
                if crossing and layer == "words" and _kind(e) == "BudgetExceeded":
                    tracer.events["words.budget_exceeded"] += 1
                raise
            end, _ = tracer._exit()
            if observe is not None:
                observe.post(tracer, args, res, pre, end - start)
            return res

        self._wrapped[key] = wrapper
        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, coxkit):
        mods = [coxkit] + [getattr(coxkit, layer) for layer in LAYERS]
        layer_of = {"coxkit.%s" % layer: layer for layer in LAYERS}
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                layer = layer_of.get(val.__module__)
                if layer is not None:
                    self._rebind(mod, attr, self.wrap(val, layer))
        FG = coxkit.finite.FiniteGroup
        for attr in ("from_matrix", "from_action"):
            fn = FG.__dict__[attr].__func__
            self._rebind(FG, attr, classmethod(self.wrap(fn, "finite")))
        CM = coxkit.diagram.CoxeterMatrix
        post_init = CM.__post_init__
        tracer = self

        def counted_post_init(M):
            post_init(M)
            key = id(M)
            tracer._live[key] = weakref.finalize(M, tracer._count_cache, key, M._cache)

        self._rebind(CM, "__post_init__", counted_post_init)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _count_cache(self, key, cache):
        """Add a matrix's reduce-cache size when it dies or the run ends."""
        del self._live[key]
        self.cache_entries += len(cache.get("reduce", ()))

    # -- results ----------------------------------------------------------

    def begin_query(self, qid, kind):
        self.query = (qid, kind)

    def finish(self):
        """Count the caches of matrices still alive; call once at the end."""
        for f in list(self._live.values()):
            f()

    def metrics(self):
        fc, ev = self.fn_calls, self.events
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.layer_calls[layer], "count")
            out[layer + ".self_s"] = (self.layer_self[layer], "s")
        for key, fn in (("diagram.spherical_order.calls", "diagram.spherical_order"),
                        ("diagram.submatrix.calls", "diagram.submatrix"),
                        ("words.reduce.calls", "words.reduce"),
                        ("words.multiply.calls", "words.multiply"),
                        ("words.conjugate.calls", "words.conjugate"),
                        ("words.element_order.calls", "words.element_order"),
                        ("finite.from_matrix.calls", "finite.from_matrix"),
                        ("quotients.separation_plan.calls", "quotients.separation_plan"),
                        ("quotients.todd_coxeter.calls", "quotients.todd_coxeter"),
                        ("quotients.separate.calls", "quotients.separate"),
                        ("evenconj.decide.calls", "evenconj.decide_conjugacy_even"),
                        ("parabolic.pc_element.calls", "parabolic.pc_element")):
            out[key] = (fc[fn], "count")
        for key, fn in (("words.element_order.self_s", "words.element_order"),
                        ("finite.from_matrix.self_s", "finite.from_matrix"),
                        ("quotients.separation_plan.self_s", "quotients.separation_plan"),
                        ("quotients.todd_coxeter.self_s", "quotients.todd_coxeter"),
                        ("evenconj.verify_decision.self_s", "evenconj.verify_decision"),
                        ("autcompat.compat_report.self_s", "autcompat.compat_report"),
                        ("autcompat.inner_by_graph.self_s", "autcompat.inner_by_graph"),
                        ("autcompat.smallwords_inner.self_s", "autcompat.smallwords_inner")):
            out[key] = (self.fn_self[fn], "s")

        def ratio(num, den):
            return (ev[num] / den if den else 0.0), "ratio"

        out["words.element_order.none_ratio"] = ratio("element_order.none",
                                                      fc["words.element_order"])
        out["words.budget_exceeded"] = (ev["words.budget_exceeded"], "count")
        out["words.reduce_cache_entries"] = (self.cache_entries, "count")
        out["finite.elements_built"] = (ev["finite.elements"], "count")
        out["finite.from_matrix.repeat_ratio"] = ratio("from_matrix.repeat",
                                                       fc["finite.from_matrix"])
        out["quotients.separation_plan.repeat_ratio"] = ratio("separation_plan.repeat",
                                                              ev["separation_plan.build"])
        out["quotients.todd_coxeter.cap_ratio"] = ratio("todd_coxeter.cap",
                                                        fc["quotients.todd_coxeter"])
        out["quotients.separate.found_ratio"] = ratio("separate.found",
                                                      fc["quotients.separate"])
        out["evenconj.unknown_ratio"] = ratio("decide.unknown",
                                              fc["evenconj.decide_conjugacy_even"])
        out["parabolic.bounded_ratio"] = ratio("pc.bounded", fc["parabolic.pc_element"])
        out["autcompat.undecided_ratio"] = ratio(
            "autcompat.undecided",
            fc["autcompat.compat_report"] + fc["autcompat.inner_by_graph"]
            + fc["autcompat.smallwords_inner"])
        for cmd in CLI_COMMANDS:
            ms = self.cli_ms.get(cmd)
            out["cli.%s.p50_ms" % cmd] = (statistics.median(ms) if ms else 0.0, "ms")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped,
                                 "fn_calls": dict(self.fn_calls),
                                 "fn_self_s": dict(self.fn_self),
                                 "layer_self_s": dict(self.layer_self)}) + "\n")


class _Observer:
    """Per-function hooks that turn results into counted outcomes."""

    def __init__(self, post, pre=None):
        self.post = post
        self.pre = pre or (lambda tracer, args: None)


def _element_order(tr, args, res, pre, dt):
    if res is None:
        tr.events["element_order.none"] += 1


def _from_matrix(tr, args, res, pre, dt):
    rows = args[1].rows
    if rows in tr.rows_built["from_matrix"]:
        tr.events["from_matrix.repeat"] += 1
    tr.rows_built["from_matrix"].add(rows)
    if res is not None:
        tr.events["finite.elements"] += res.size


def _from_action(tr, args, res, pre, dt):
    if res is not None:
        tr.events["finite.elements"] += res.size


def _plan_keys(M):
    return sum(1 for k in M._cache if isinstance(k, tuple) and k and k[0] == "sep_plan")


def _separation_plan(tr, args, res, pre, dt):
    M = args[0]
    if _plan_keys(M) > pre:
        tr.events["separation_plan.build"] += 1
        if M.rows in tr.rows_built["separation_plan"]:
            tr.events["separation_plan.repeat"] += 1
        tr.rows_built["separation_plan"].add(M.rows)


def _count_if(event, *kinds):
    def post(tr, args, res, pre, dt):
        if _kind(res) in kinds:
            tr.events[event] += 1
    return post


def _compat_report(tr, args, res, pre, dt):
    if any(_kind(getattr(res, f)) == "CompatUnknown"
           for f in ("reflection", "angle", "parabolic")):
        tr.events["autcompat.undecided"] += 1


def _cli_run(tr, args, res, pre, dt):
    argv = args[0]
    cmd = next((a for a in argv if a in CLI_COMMANDS), None)
    if cmd is not None:
        tr.cli_ms[cmd].append(dt * 1000.0)


OBSERVERS = {
    "words.element_order": _Observer(_element_order),
    "finite.from_matrix": _Observer(_from_matrix),
    "finite.from_action": _Observer(_from_action),
    "quotients.separation_plan": _Observer(_separation_plan,
                                           lambda tr, args: _plan_keys(args[0])),
    "quotients.todd_coxeter": _Observer(_count_if("todd_coxeter.cap", "CapExceeded")),
    "quotients.separate": _Observer(_count_if("separate.found", "SeparationWitness")),
    "evenconj.decide_conjugacy_even": _Observer(_count_if("decide.unknown", "Unknown")),
    "parabolic.pc_element": _Observer(_count_if("pc.bounded", "PcBounded", "PcUnknown")),
    "autcompat.compat_report": _Observer(_compat_report),
    "autcompat.inner_by_graph": _Observer(_count_if("autcompat.undecided", "Undecided")),
    "autcompat.smallwords_inner": _Observer(_count_if("autcompat.undecided", "Undecided")),
    "cli.run": _Observer(_cli_run),
}
