"""In-memory span tracer that wraps odflow's functions from outside.

A span is one call of a wrapped function: [name, start, end, parent, round],
where parent is the index of the enclosing span (-1 at top level) and round
is the benchmark round the call belongs to (-1 during set-up).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time covered by its children.

    python3 bench/spans.py bench_out/trace-<workload>-seed<n>.json [first [last]]

prints the calls, inclusive and self time of every span name in a trace
file.  With `first` and `last` it keeps only the spans from the start of the
first span called `first` to the end of the next span called `last`:
`model.forward training.adam_step` is one training step.
"""

import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = -1
        self.counts = defaultdict(float)   # summed like times: per round
        self.maxima = defaultdict(float)   # largest value seen in the run
        self.active = True
        self._stack = []
        self._patches = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, value=1.0):
        self.counts[(name, self.round)] += value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, targets, name, before=None, after=None):
        """Replace attribute `attr` of every (owner, attr) in `targets` with
        one traced wrapper around the first target's original.

        `name` is a span name or a function of the call's arguments.
        `before(*args, **kwargs)` and `after(result, *args, **kwargs)` run
        outside the span, for counters.
        """
        owner, attr = targets[0]
        original = getattr(owner, attr)
        static = inspect.getattr_static(owner, attr)

        def traced(*args, **kwargs):
            if not self.active:     # a reference kept after uninstall()
                return original(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            self.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        # a classmethod read through getattr is already bound to its class
        replacement = (staticmethod(traced)
                       if isinstance(static, (classmethod, staticmethod))
                       else traced)
        for owner, attr in targets:
            self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self):
        """Put every wrapped attribute back; later calls are not traced."""
        self.active = False
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches = []

    def times(self, rounds):
        """Inclusive and self seconds per span name: set-up spans count
        once, spans inside rounds are averaged over `rounds`."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            share = 1.0 if rnd < 0 else 1.0 / rounds
            total[name] += (end - start) * share
            own[name] += (end - start - child[i]) * share
        return total, own

    def per_round_counts(self, rounds):
        out = defaultdict(float)
        for (name, rnd), value in self.counts.items():
            out[name] += value if rnd < 0 else value / rounds
        return out

    def dump(self, path, extra):
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[n, round(s - t0, 7), round(e - t0, 7), p, r]
                 for n, s, e, p, r in self.spans]
        with open(path, "w") as f:
            json.dump({**extra, "span_fields": ["name", "start_s", "end_s",
                                                "parent", "round"],
                       "spans": spans}, f, separators=(",", ":"))


def summarize(spans, first=None, last=None):
    """Calls, inclusive and self seconds per span name, over all spans or
    over those from the first `first` span to the end of the next `last`."""
    lo, hi = float("-inf"), float("inf")
    if first is not None:
        i = next(i for i, s in enumerate(spans) if s[0] == first)
        lo = spans[i][1]
        hi = next(s[2] for s in spans[i:] if s[0] == (last or first))
    keep = [i for i, s in enumerate(spans) if s[1] >= lo and s[2] <= hi]
    child = defaultdict(float)
    for i in keep:
        if spans[i][3] >= 0:
            child[spans[i][3]] += spans[i][2] - spans[i][1]
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i in keep:
        name, start, end = spans[i][:3]
        rows[name][0] += 1
        rows[name][1] += end - start
        rows[name][2] += end - start - child[i]
    return rows


def main(argv):
    with open(argv[0]) as f:
        trace = json.load(f)
    rows = summarize(trace["spans"], *argv[1:3])
    print(f"{'span':34s} {'calls':>7s} {'incl_s':>9s} {'self_s':>9s}")
    for name, (calls, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34s} {calls:7d} {incl:9.4f} {own:9.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
