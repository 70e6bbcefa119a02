"""Trace wrappers around the program's layers and the per-layer metrics.

``install`` replaces functions and methods of the imported ``graphgroups``
modules with wrappers that record spans and counts in a ``harness.Tracer``;
every module-level name bound to the original is rebound, so calls between
modules are seen too. Names a later version of the program lacks are
skipped, and their metrics read 0. ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools

MODULES = ("graphs", "trace", "raag", "commgraph", "conceal", "cli")

# (module, attribute, span name). Self time of a span excludes its children.
SPANS = (
    ("graphs", "find_embedding", "graphs.find_embedding"),
    ("graphs", "induced", "graphs.induced"),
    ("graphs", "co_components", "graphs.co_components"),
    ("graphs", "parse_graph", "graphs.parse_graph"),
    ("trace", "lex_normal_letters", "trace.lex_normal_letters"),
    ("trace", "trace_equal", "trace.trace_equal"),
    ("trace", "trace_commute", "trace.trace_commute"),
    ("trace", "primitive_root", "trace.primitive_root"),
    ("raag", "group_commute", "raag.group_commute"),
    ("raag", "cyclic_reduce", "raag.cyclic_reduce"),
    ("raag", "pure_factors", "raag.pure_factors"),
    ("raag", "centralizer_witness", "raag.centralizer_witness"),
    ("commgraph", "canonical_elements", "commgraph.canonical_elements"),
    ("commgraph", "_commute_masks", "commgraph.commute_masks"),
    ("commgraph", "phi_search", "commgraph.phi_search"),
    ("conceal", "verify_tau_injective", "conceal.verify_tau_injective"),
    ("conceal", "verify_no_embedding", "conceal.verify_no_embedding"),
    ("cli", "main", "cli.main"),
)


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, value from a tracer, the end-to-end metric it should
# move). The names are the ``per_layer`` entries of BENCHMARK.json.
PER_LAYER = (
    ("graphs.find_embedding.calls", "count", "lower",
     lambda t: t.calls["graphs.find_embedding"], "conceal op_p50_ms"),
    ("graphs.find_embedding.self_s", "s", "lower",
     lambda t: t.self_s["graphs.find_embedding"], "conceal op_p50_ms"),
    ("graphs.induced.self_s", "s", "lower",
     lambda t: t.self_s["graphs.induced"], "centralizer ops_per_s"),
    ("graphs.co_components.self_s", "s", "lower",
     lambda t: t.self_s["graphs.co_components"], "centralizer ops_per_s"),
    ("graphs.adjacency_queries", "count", "lower",
     lambda t: t.counts["graphs.adjacency_queries"], "ops_per_s on every workload"),
    ("graphs.parse_graph.self_s", "s", "lower",
     lambda t: t.self_s["graphs.parse_graph"], "setup_s; conceal and search op_p50_ms"),
    ("trace.lex_normal_letters.calls", "count", "lower",
     lambda t: t.calls["trace.lex_normal_letters"],
     "words op_tail_ms; centralizer and conceal ops_per_s"),
    ("trace.lex_normal_letters.letters_in", "count", "lower",
     lambda t: t.counts["trace.lex_normal_letters.letters_in"],
     "words op_tail_ms; centralizer and conceal ops_per_s"),
    ("trace.lex_normal_letters.self_s", "s", "lower",
     lambda t: t.self_s["trace.lex_normal_letters"],
     "words op_tail_ms; centralizer and conceal ops_per_s"),
    ("trace.trace_equal.self_s", "s", "lower",
     lambda t: t.self_s["trace.trace_equal"], "words; monoid search op_p50_ms"),
    ("trace.trace_commute.self_s", "s", "lower",
     lambda t: t.self_s["trace.trace_commute"], "words; monoid search op_p50_ms"),
    ("trace.primitive_root.self_s", "s", "lower",
     lambda t: t.self_s["trace.primitive_root"], "words op_tail_ms"),
    ("trace.root_candidates", "count", "lower",
     lambda t: t.counts["trace.root_candidates"], "words op_tail_ms"),
    ("raag.GroupElement.calls", "count", "lower",
     lambda t: t.calls["raag.GroupElement"], "words and centralizer ops_per_s"),
    ("raag.GroupElement.letters_in", "count", "lower",
     lambda t: t.counts["raag.GroupElement.letters_in"], "words and centralizer ops_per_s"),
    ("raag.GroupElement.self_s", "s", "lower",
     lambda t: t.self_s["raag.GroupElement"], "words and centralizer ops_per_s"),
    ("raag.group_commute.calls", "count", "lower",
     lambda t: t.calls["raag.group_commute"], "search op_p50_ms; centralizer ops_per_s"),
    ("raag.group_commute.self_s", "s", "lower",
     lambda t: t.self_s["raag.group_commute"], "search op_p50_ms; centralizer ops_per_s"),
    ("raag.cyclic_reduce.self_s", "s", "lower",
     lambda t: t.self_s["raag.cyclic_reduce"], "centralizer ops_per_s"),
    ("raag.pure_factors.self_s", "s", "lower",
     lambda t: t.self_s["raag.pure_factors"], "centralizer ops_per_s"),
    ("raag.root_candidates", "count", "lower",
     lambda t: t.counts["raag.root_candidates"], "centralizer ops_per_s"),
    ("raag.centralizer_witness.self_s", "s", "lower",
     lambda t: t.self_s["raag.centralizer_witness"], "centralizer ops_per_s"),
    ("raag.exponent_vectors", "count", "lower",
     lambda t: t.counts["raag.exponent_vectors"], "centralizer ops_per_s"),
    ("raag.witness_yield", "ratio", "higher",
     lambda t: _ratio(t.counts["raag.witnesses"], t.counts["raag.exponent_vectors"]),
     "centralizer ops_per_s"),
    ("commgraph.canonical_elements.self_s", "s", "lower",
     lambda t: t.self_s["commgraph.canonical_elements"], "conceal ops_per_s"),
    ("commgraph.raw_words", "count", "lower",
     lambda t: t.counts["commgraph.raw_words"], "conceal ops_per_s"),
    ("commgraph.pool_elements", "count", "lower",
     lambda t: t.counts["commgraph.pool_elements"], "conceal ops_per_s"),
    ("commgraph.pool_yield", "ratio", "higher",
     lambda t: _ratio(t.counts["commgraph.pool_elements"], t.counts["commgraph.raw_words"]),
     "conceal ops_per_s"),
    ("commgraph.commute_tests", "count", "lower",
     lambda t: t.counts["commgraph.commute_tests"], "search op_p50_ms"),
    ("commgraph.commute_tests.s", "s", "lower",
     lambda t: t.total_s["commgraph.commute_masks"], "search op_p50_ms"),
    ("commgraph.phi_search.self_s", "s", "lower",
     lambda t: t.self_s["commgraph.phi_search"], "search op_tail_ms"),
    ("commgraph.candidates", "count", "lower",
     lambda t: t.counts["commgraph.candidates"], "search op_tail_ms"),
    ("commgraph.found_share", "ratio", "higher",
     lambda t: _ratio(t.counts["commgraph.found"], t.calls["commgraph.phi_search"]),
     "search (workload property)"),
    ("commgraph.pool_repeat_share", "ratio", "higher",
     lambda t: _ratio(t.counts["commgraph.pool_repeats"], t.calls["commgraph.phi_search"]),
     "search (workload property; cite it for any caching claim)"),
    ("conceal.verify_tau_injective.self_s", "s", "lower",
     lambda t: t.self_s["conceal.verify_tau_injective"], "conceal ops_per_s"),
    ("conceal.ball_elements", "count", "lower",
     lambda t: t.counts["conceal.ball_elements"], "conceal ops_per_s"),
    ("conceal.apply_tau.calls", "count", "lower",
     lambda t: t.counts["conceal.apply_tau.calls"], "conceal ops_per_s"),
    ("conceal.image_letters", "count", "lower",
     lambda t: t.counts["conceal.image_letters"], "conceal ops_per_s"),
    ("conceal.verify_no_embedding.self_s", "s", "lower",
     lambda t: t.self_s["conceal.verify_no_embedding"], "conceal op_p50_ms"),
    ("cli.main.calls", "count", "lower",
     lambda t: t.calls["cli.main"], "search and conceal op_p50_ms"),
    ("cli.main.self_s", "s", "lower",
     lambda t: t.self_s["cli.main"], "search and conceal op_p50_ms"),
    ("bench.traced_wall_s", "s", "lower",
     lambda t: t.total_s["bench"], "sum of every self time, the bench's own included"),
    ("bench.self_s", "s", "lower",
     lambda t: t.self_s["bench"], "the benchmark's own time in the traced run"),
)


def _letters_len(args, kwargs, position):
    letters = args[position] if len(args) > position else kwargs.get("letters", ())
    return len(letters) if hasattr(letters, "__len__") else 0


def _note_lex(t, args, kwargs, result):
    t.counts["trace.lex_normal_letters.letters_in"] += _letters_len(args, kwargs, 1)


def _note_element(t, args, kwargs, result):
    t.counts["raag.GroupElement.letters_in"] += _letters_len(args, kwargs, 2)


def _note_centralizer(t, args, kwargs, result):
    t.counts["raag.witnesses"] += result.status == "witness"


def _note_canonical(t, args, kwargs, result):
    ambient, mode, max_len = args[:3]
    alphabet = len(ambient.vertices) * (1 if mode == "monoid" else 2)
    t.counts["commgraph.raw_words"] += sum(alphabet**n for n in range(max_len + 1))
    t.counts["commgraph.pool_elements"] += len(result)


def _note_masks(t, args, kwargs, result):
    n = len(args[1])
    t.counts["commgraph.commute_tests"] += n * (n - 1) // 2


def _note_tau(t, args, kwargs, result):
    t.counts["conceal.ball_elements"] += result.element_count


NOTES = {
    "trace.lex_normal_letters": _note_lex,
    "raag.centralizer_witness": _note_centralizer,
    "commgraph.canonical_elements": _note_canonical,
    "commgraph.commute_masks": _note_masks,
    "conceal.verify_tau_injective": _note_tau,
}


def _span(tracer, name, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if note is not None:
            note(tracer, args, kwargs, result)
        return result

    return wrapper


class Installed:
    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, namespaces, original, replacement):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self.set(ns, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def install(tracer, package):
    """Wrap the layers of an imported ``graphgroups`` package."""
    mods = {name: getattr(package, name, None) for name in MODULES}
    namespaces = [package] + [m for m in mods.values() if m is not None]
    done = Installed()
    counts = tracer.counts
    seen_pools = set()

    def note_phi_search(t, args, kwargs, report):
        ambient, mode, max_len = args[1:4]
        key = (tuple(ambient.vertices), tuple(ambient.edges()), mode, max_len)
        counts["commgraph.pool_repeats"] += key in seen_pools
        seen_pools.add(key)
        counts["commgraph.candidates"] += report.candidates
        counts["commgraph.found"] += report.status == "found"

    notes = dict(NOTES, **{"commgraph.phi_search": note_phi_search})
    for module, attr, name in SPANS:
        original = getattr(mods[module], attr, None)
        if original is not None:
            done.rebind(namespaces, original, _span(tracer, name, original, notes.get(name)))

    graph_cls = getattr(mods["graphs"], "Graph", None)
    for method in ("neighbors", "adjacent"):
        original = getattr(graph_cls, method, None)
        if original is not None:
            done.set(graph_cls, method, _counted(counts, "graphs.adjacency_queries", original))

    element_cls = getattr(mods["raag"], "GroupElement", None)
    if element_cls is not None:
        done.set(element_cls, "__init__",
                 _span(tracer, "raag.GroupElement", element_cls.__init__, _note_element))

    for module in ("trace", "raag"):
        prefixes = getattr(mods[module], "iter_trace_prefixes", None)
        if prefixes is not None:
            done.set(mods[module], "iter_trace_prefixes",
                     _counted_yields(counts, f"{module}.root_candidates", prefixes))

    totally = getattr(mods["raag"], "commutes_totally", None)
    if totally is not None:
        @functools.wraps(totally)
        def counted_totally(*args, **kwargs):
            if tracer.inside("raag.centralizer_witness"):
                counts["raag.exponent_vectors"] += 1
            return totally(*args, **kwargs)

        done.rebind(namespaces, totally, counted_totally)

    result_cls = getattr(mods["conceal"], "ConcealmentResult", None)
    apply_tau = getattr(result_cls, "apply_tau", None)
    if apply_tau is not None:
        @functools.wraps(apply_tau)
        def counted_apply_tau(self, word):
            image = apply_tau(self, word)
            counts["conceal.apply_tau.calls"] += 1
            counts["conceal.image_letters"] += len(image)
            return image

        done.set(result_cls, "apply_tau", counted_apply_tau)
    return done


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted_yields(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[key] += 1
            yield item

    return wrapper


def metrics(tracer):
    return {name: (value(tracer), unit) for name, unit, _, value, _ in PER_LAYER}
