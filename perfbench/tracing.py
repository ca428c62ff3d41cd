"""Spans around the public functions of realclasses, installed from outside.

``install`` wraps each traced function on every module attribute of the
package that binds it (``field_for_order``-style imports by name included)
and each traced method on its class.  Every call becomes a span (name,
start, end, parent) kept in memory; ``dump`` writes them out at the end.
A span's self time is its duration minus the time its child spans cover.

Label generation is traced per item: each ``next()`` on the generator that
``labels.enumerate_labels`` returns is a span of that name, so its self
time is the time spent inside the generator, wherever it is consumed.
"""

import functools
import json
import resource
import sys
import time
from array import array

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("polys", "irreducibles"), ("polys", "factorize"),
    ("polys", "enumerate_T"), ("polys", "enumerate_S"),
    ("labels", "enumerate_labels"), ("labels", "equivalence_classes"),
    ("labels", "psl_strongly_real"), ("labels", "sl_strongly_real"),
    ("labels", "partitions_of"),
    ("counts", "count"), ("counts", "section13_table"),
    ("counts", "genfun_real_gl"),
    ("oracle", "matrix_to_label"), ("oracle", "verify_group"),
    ("cli", "main"),
)
# (module, class, method, span name) of each traced method.
METHODS = (
    ("fields", "Field", "__init__", "fields.Field"),
    ("oracle", "BaseGroup", "__init__", "oracle.BaseGroup"),
    ("oracle", "GroupData", "__init__", "oracle.GroupData"),
    ("oracle", "GroupData", "real_class_ids",
     "oracle.GroupData.real_class_ids"),
    ("oracle", "GroupData", "strongly_real_class_ids",
     "oracle.GroupData.strongly_real_class_ids"),
    ("oracle", "GroupData", "zeta_real_class_ids",
     "oracle.GroupData.zeta_real_class_ids"),
)

# Per-layer metrics of a traced pass: name -> unit.
LAYER_METRICS = {
    "fields.Field.calls": "count",
    "fields.Field.self_s": "s",
    "polys.irreducibles.calls": "count",
    "polys.irreducibles.self_s": "s",
    "polys.factorize.calls": "count",
    "polys.factorize.self_s": "s",
    "polys.enumerate_T.self_s": "s",
    "polys.enumerate_T.items": "count",
    "polys.enumerate_S.self_s": "s",
    "labels.enumerate_labels.labels": "count",
    "labels.enumerate_labels.self_s": "s",
    "labels.equivalence_classes.orbits": "count",
    "labels.equivalence_classes.self_s": "s",
    "labels.psl_strongly_real.self_s": "s",
    "labels.sl_strongly_real.self_s": "s",
    "labels.partitions_of.calls": "count",
    "counts.count.formula.calls": "count",
    "counts.count.formula.self_s": "s",
    "counts.count.enumeration.calls": "count",
    "counts.count.enumeration.self_s": "s",
    "counts.count.both.calls": "count",
    "counts.count.both.self_s": "s",
    "counts.count.raised.calls": "count",
    "counts.count.labels_per_class": "ratio",
    "counts.section13_table.self_s": "s",
    "counts.genfun_real_gl.self_s": "s",
    "oracle.BaseGroup.calls": "count",
    "oracle.BaseGroup.self_s": "s",
    "oracle.BaseGroup.elements": "count",
    "oracle.BaseGroup.rss_mb": "MB",
    "oracle.GroupData.self_s": "s",
    "oracle.GroupData.real_class_ids.self_s": "s",
    "oracle.GroupData.strongly_real_class_ids.self_s": "s",
    "oracle.GroupData.zeta_real_class_ids.self_s": "s",
    "oracle.matrix_to_label.calls": "count",
    "oracle.matrix_to_label.self_s": "s",
    "oracle.verify_group.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}


class Tracer:
    """In-memory span store with running per-name totals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans, innermost last: [span id, child seconds, labels]
        self._stack = []
        self.calls = {}
        self.self_s = {}
        self.counters = {}

    def open(self):
        sid = len(self.span_start)
        self.span_name.append(-1)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([sid, 0.0, 0])
        self.span_start.append(time.perf_counter())

    def close(self, name):
        """End the innermost span; return the labels generated inside it."""
        end = time.perf_counter()
        sid, child_s, labels = self._stack.pop()
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name[sid] = self._name_ids[name]
        self.span_end[sid] = end
        duration = end - self.span_start[sid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2] += labels
        return labels

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def label_made(self):
        self._stack[-1][2] += 1
        self.add("labels.enumerate_labels.labels", 1)

    def metrics(self):
        """Every per-layer metric, zero for layers the pass did not run."""
        out = {}
        for name in LAYER_METRICS:
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls.get(span, 0)
            elif stat == "self_s":
                out[name] = self.self_s.get(span, 0.0)
            else:
                out[name] = self.counters.get(name, 0)
        classes = self.counters.get("counts.count.classes", 0)
        out["counts.count.labels_per_class"] = (
            self.counters.get("counts.count.labels", 0) / classes
            if classes else 0.0)
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as out:
            for sid in range(len(self.span_start)):
                json.dump([self.names[self.span_name[sid]],
                           self.span_start[sid], self.span_end[sid],
                           self.span_parent[sid]], out)
                out.write("\n")


def _traced(tracer, name, fn, after=None):
    """Wrap fn in a span.

    ``after(args, result)``, when given, closes the span itself, so that it
    can name the span after the result and count what the call produced.
    A call to counts.count that raises is named "counts.count.raised".
    """
    raised = name + ".raised" if name == "counts.count" else name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(raised)
            raise
        if after is None:
            tracer.close(name)
            return result
        return after(args, result)
    return traced


def _traced_labels(tracer, gen):
    name = "labels.enumerate_labels"
    while True:
        tracer.open()
        try:
            label = next(gen)
        except StopIteration:
            tracer.close(name)
            return
        except BaseException:
            tracer.close(name)
            raise
        tracer.label_made()
        tracer.close(name)
        yield label


def _rebind(package_modules, old, new):
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer, package):
    """Wrap the traced callables of ``package`` (the imported realclasses)."""
    prefix = package.__name__ + "."
    package_modules = [m for key, m in sorted(sys.modules.items())
                       if key == package.__name__ or key.startswith(prefix)]
    modules = {key[len(prefix):]: m for key, m in sys.modules.items()
               if key.startswith(prefix)}

    def close_count(args, report):
        labels = tracer.close("counts.count." + report.method)
        if report.method != "formula":
            tracer.add("counts.count.labels", labels)
            tracer.add("counts.count.classes", report.total)
        return report

    def close_sized(name, counter):
        def after(args, result):
            tracer.close(name)
            tracer.add(counter, len(result))
            return result
        return after

    def close_labels(args, gen):
        tracer.close("labels.enumerate_labels")
        return _traced_labels(tracer, gen)

    def close_base_group(args, result):
        tracer.close("oracle.BaseGroup")
        tracer.add("oracle.BaseGroup.elements", args[0].order)
        # ru_maxrss never falls, so the last build's reading is the maximum
        tracer.counters["oracle.BaseGroup.rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    after = {
        "counts.count": close_count,
        "labels.enumerate_labels": close_labels,
        "polys.enumerate_T": close_sized(
            "polys.enumerate_T", "polys.enumerate_T.items"),
        "labels.equivalence_classes": close_sized(
            "labels.equivalence_classes", "labels.equivalence_classes.orbits"),
        "oracle.BaseGroup": close_base_group,
    }
    for module_name, attr in FUNCTIONS:
        name = "%s.%s" % (module_name, attr)
        original = getattr(modules[module_name], attr)
        _rebind(package_modules, original,
                _traced(tracer, name, original, after.get(name)))
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(modules[module_name], cls_name)
        setattr(cls, attr, _traced(tracer, name, getattr(cls, attr),
                                   after.get(name)))
