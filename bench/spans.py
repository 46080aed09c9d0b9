"""In-memory spans and call counters for the traced run.

Spans are recorded by wrapping library functions from outside: a wrapper
replaces the name in the module that calls it (``separators`` and
``certificates`` import their layer functions with ``from .x import f``, so
``prodsep.separators.stallings_graph`` is the name to replace, not
``prodsep.stallings.stallings_graph``). No library file changes.
"""

import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, INSTANCE = range(5)

SOLVE = "solve"
VERIFY = "certificates.verify"


class Tracer:
    """A span stack plus counters; spans are [name, start, end, parent, instance]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.counts = Counter()
        self._undo = []
        self._missing = set()

    def run(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[END] = time.perf_counter()

    def parent_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def wrap(self, module, attr, name, on_result=None, only_under=None):
        """Replace module.attr by a spanned call; restore() undoes it.

        With ``only_under``, the span is recorded only when the innermost
        open span has that name; other calls run unwrapped.
        """
        if not hasattr(module, attr):
            if (module.__name__, attr) not in self._missing:
                self._missing.add((module.__name__, attr))
                print(f"trace: {module.__name__}.{attr} not found, layer not traced",
                      file=sys.stderr)
            return
        fn = getattr(module, attr)

        def spanned(*args, **kwargs):
            if only_under is not None and self.parent_name() != only_under:
                return fn(*args, **kwargs)
            out = self.run(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(module, attr, spanned)
        self._undo.append((module, attr, fn))

    def count_calls(self, owner, attr, key):
        """Replace a method by one that counts its calls; restore() undoes it."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, fn))

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def self_times(self):
        """Name -> total self time: span time minus the time of its child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[NAME]] += s[END] - s[START] - child[i]
        return out


def install_spans(tracer, ps):
    """Wrap every layer boundary the per-layer metrics name."""
    sep, cert = ps.separators, ps.certificates
    counts = tracer.counts
    free_reduce = ps.free_reduce

    def folded_graph(args, out):
        alphabet, generators = args[:2]
        words = {free_reduce(g) for g in generators} - {()}
        counts["stallings.calls"] += 1
        counts["stallings.folded_vertices"] += (
            1 + sum(len(w) - 1 for w in words) - out.graph.num_vertices)

    def folded_path(args, out):
        h, word = args[:2]
        counts["stallings.calls"] += 1
        counts["stallings.folded_vertices"] += (
            h.graph.num_vertices + len(free_reduce(word)) - out.graph.num_vertices)

    def group(args, out):
        counts["covers.carrier_points"] += out.carrier

    def image(args, out):
        counts["separators.image_elements"] += len(out)

    for module in (sep, cert):
        tracer.wrap(module, "stallings_graph", "stallings.fold", folded_graph)
    tracer.wrap(sep, "attach_word", "stallings.fold", folded_path)
    tracer.wrap(sep, "expand_to_cover", "covers.cover")
    tracer.wrap(sep, "transition_group", "covers.cover", group)
    tracer.wrap(sep, "_build_context", "separators.context")
    tracer.wrap(sep, "image_subgroup_order", "separators.image_order")
    tracer.wrap(sep, "image_subgroup", "separators.image_enum", image)
    tracer.wrap(sep, "_product_member", "separators.product_member")
    # only the sizing call product_separator makes itself; the calls inside
    # _product_member and _search_seeds stay in their caller's self time
    tracer.wrap(sep, "_product_with_witness", "separators.product_size", only_under=SOLVE)
    tracer.wrap(sep, "_search_seeds", "separators.seed_search")
    tracer.wrap(sep, "_pinch", "separators.pinch")
    tracer.wrap(cert, "image_subgroup", "certificates.verify_image")
    tracer.wrap(cert, "_product_member", "certificates.verify_image")


def install_counters(tracer, ps):
    """Count the per-element products; kept apart from the span pass."""
    tracer.count_calls(ps.groups.XGroup, "mult", "groups.mult_calls")
    tracer.count_calls(ps.extensions.ExtensionLevel, "mult", "extensions.mult_calls")
    tracer.count_calls(ps.extensions.ExtensionLevel, "inv", "extensions.inv_calls")
