"""Run one `padichyp` CLI invocation with every public function traced.

    python3 perfbench/traced.py SUMMARY.json SPANS.jsonl -- <padichyp argv>

The wrappers are installed from outside the package: each public function
and each public classmethod of every `padichyp` module is replaced, in every
module namespace that holds it, by a wrapper that records a span or, for the
calls named in HOT and COUNTED, a count with or without its time.  Spans are
kept in memory and written to SPANS.jsonl after the CLI returns; the
per-layer summary goes to SUMMARY.json.  The report bytes on stdout must be identical
to an untraced run of the same argv, which run.py checks.

Self time of a call is its duration minus the time of the wrapped calls made
directly inside it.  Code that is not wrapped (stdlib `fractions`, `math`,
private helpers, instance methods, dataclass constructors) therefore counts
toward the self time of the innermost wrapped `padichyp` call that ran it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("padic", "combinatorics", "hyp", "gamma", "characters", "gfunction",
           "qseries", "report", "checks", "cli")

# Calls made over a hundred thousand times in check-all: counted only, so
# their time stays in the self time of the wrapped call that made them.
COUNTED = {
    "padic": {"check_prime", "is_odd_prime"},
    "combinatorics": {"harmonic"},
}

# Leaf calls made thousands of times: counted and timed, but no span record
# is kept.  A hot call may make hot or counted calls, never a spanned one.
HOT = {
    "padic": {"padic_add", "padic_mul", "padic_neg", "padic_inv", "valuation_of_int",
              "rational_to_padic", "congruent_mod", "teichmuller",
              "PadicValue.zero", "PadicValue.from_residue"},
    "gamma": {"gamma_residue", "gamma_p", "rep", "split_by_rep", "g1", "g2"},
    "hyp": {"rising_factorial"},
}


def coeff_updates(factors, truncation: int) -> int:
    """Inner-loop coefficient updates eta_product performs for its arguments."""
    factors = [(int(s), int(e)) for s, e in factors]
    length = truncation - sum(s * e for s, e in factors) // 24 + 1
    return sum(e * (length - s * n)
               for s, e in factors for n in range(1, (length - 1) // s + 1))


class Tracer:
    """Spans and counters for wrapped calls, kept in memory."""

    def __init__(self):
        self.spans = []             # (parent id, module, name, t0, t1, child_s)
        self.stack = [[0.0, -1]]    # [time in direct wrapped children, span id]
        self.cells = {}             # (module, name) -> [calls, hot self seconds]
        self.failed = Counter()     # module -> calls that raised
        self.gamma_args = set()
        self.qseries_args = set()
        self.extra = Counter()

    def _observe(self, mod: str, name: str, args, kwargs) -> None:
        """Work counters computed from the arguments of a spanned call."""
        if name == "greene_series_scaled":
            top, x = args[0], args[2]
            p = top[0].prime
            if x % p:
                self.extra["characters.terms"] += len(top) * (p - 1) * (p - 2)
        elif name == "truncated_hyp_exact":
            self.extra["hyp.terms"] += args[0].truncation
        elif mod == "qseries":
            self.qseries_args.add((name, repr(args), repr(sorted(kwargs.items()))))
            if name == "eta_product":
                self.extra["qseries.coeff_updates"] += coeff_updates(*args)

    def _wrap(self, mod: str, name: str, fn):
        cell = self.cells.setdefault((mod, name), [0, 0.0])
        if name in COUNTED.get(mod, ()):
            wrapper = self._counted(cell, fn)
        elif name in HOT.get(mod, ()):
            wrapper = self._hot(mod, name, cell, fn)
        else:
            wrapper = self._span(mod, name, cell, fn)
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(cell, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hot(self, mod, name, cell, fn):
        stack, pc, failed = self.stack, time.perf_counter, self.failed
        gamma_args = self.gamma_args if name == "gamma_residue" else None

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if gamma_args is not None:
                gamma_args.add(args[:3])
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[mod] += 1
                raise
            finally:
                dt = pc() - t0
                stack.pop()
                parent[0] += dt
                cell[1] += dt - frame[0]
        return wrapper

    def _span(self, mod, name, cell, fn):
        spans, stack, pc, failed = self.spans, self.stack, time.perf_counter, self.failed

        def wrapper(*args, **kwargs):
            cell[0] += 1
            self._observe(mod, name, args, kwargs)
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[mod] += 1
                raise
            finally:
                t1 = pc()
                stack.pop()
                parent[0] += t1 - t0
                spans[sid] = (parent[1], mod, name, t0, t1, frame[0])
        return wrapper

    def install(self, package: str = "padichyp") -> dict:
        """Wrap every public function and classmethod; returns the modules."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(vars(importlib.import_module(package)))
        for short, mod in mods.items():
            qual = f"{package}.{short}"
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != qual:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(short, attr, obj)
                    for ns in namespaces:
                        for key, val in list(ns.items()):
                            if val is obj:
                                ns[key] = w
                elif inspect.isclass(obj):
                    for mname, raw in list(vars(obj).items()):
                        if not mname.startswith("_") and isinstance(raw, classmethod):
                            w = self._wrap(short, f"{attr}.{mname}", raw.__func__)
                            setattr(obj, mname, classmethod(w))
        return mods

    def per_function(self) -> dict:
        """(module, name) -> [calls, self seconds]."""
        out = {key: list(cell) for key, cell in self.cells.items() if cell[0]}
        for _, mod, name, t0, t1, child_s in self.spans:
            out[(mod, name)][1] += (t1 - t0) - child_s
        return out

    def summary(self) -> dict:
        """Per-layer metrics named <module>.<metric>."""
        calls, self_s = Counter(), Counter()
        for (mod, _), (n, s) in self.per_function().items():
            calls[mod] += n
            self_s[mod] += s
        task_s = [t1 - t0 for _, mod, name, t0, t1, _ in self.spans
                  if (mod, name) == ("checks", "run_task")]
        out = {}
        for mod in MODULES:
            out[f"{mod}.calls"] = calls[mod]
            out[f"{mod}.self_s"] = self_s[mod]
            out[f"{mod}.failed"] = self.failed[mod]
        out["gamma.residue_calls"] = self.cells[("gamma", "gamma_residue")][0]
        out["gamma.distinct"] = len(self.gamma_args)
        out["qseries.distinct"] = len(self.qseries_args)
        out["checks.tasks"] = len(task_s)
        out["checks.task_s.sum"] = sum(task_s)
        out["checks.task_s.max"] = max(task_s, default=0.0)
        for key in ("characters.terms", "hyp.terms", "qseries.coeff_updates"):
            out[key] = self.extra[key]
        return out


def cache_sizes(mods: dict) -> dict:
    """Entries held by each module-level cache after the run."""
    out = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                out[f"{short}.{attr}"] = obj.cache_info().currsize
            elif isinstance(obj, dict) and "cache" in attr:
                out[f"{short}.{attr}"] = len(obj)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py SUMMARY.json SPANS.jsonl -- <padichyp argv>",
              file=sys.stderr)
        return 2
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    mods = tracer.install()
    t0 = time.perf_counter()
    code = mods["cli"].main(cli_argv)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    doc = {
        "argv": cli_argv,
        "exit": code,
        "wall_s": wall,
        "spans": len(tracer.spans),
        "metrics": tracer.summary(),
        "functions": {f"{m}.{n}": v for (m, n), v in
                      sorted(tracer.per_function().items())},
        "caches": cache_sizes(mods),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, (parent, mod, name, s0, s1, _) in enumerate(tracer.spans):
            fh.write(json.dumps([sid, parent, f"{mod}.{name}",
                                 round(s0 - t0, 7), round(s1 - t0, 7)]) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
