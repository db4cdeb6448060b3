"""One repetition of a workload in a cold interpreter.

    python3 perfbench/worker.py SPAWN_MONOTONIC < job.json

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started this
process, so setup time covers interpreter start-up and the package import.
The job is {"tasks": [...], "trace": bool}; an empty task list measures set-up
only.  The result is one JSON object on stdout.
"""

import functools
import importlib
import json
import resource
import sys
import time

import calib
import workloads

# bound-column values that are verdicts, not errors
VERDICTS = ("markov", "conditions_failed")
# calibration samples right after the import; one more follows every task,
# so that each task is bracketed by two
CALIB_SAMPLES = 3


class Tracer:
    """Spans around calls into the package, recorded from outside it.

    Each wrapped call records a span (name, parent span, start, end, raised).
    The hot kernels would produce hundreds of thousands of spans, so their
    calls are summed per parent span instead.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, raised]
        self.hot = {}  # (parent index, name) -> [calls, seconds, raised]
        self._stack = [-1]

    def install(self):
        """Wrap every listed function at every binding the package holds."""
        homes = {mod_name: importlib.import_module(f"ldpc_moments.{mod_name}")
                 for mod_name in workloads.LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ldpc_moments" or n.startswith("ldpc_moments.")]
        for mod_name, fns in workloads.LAYERS.items():
            home = homes[mod_name]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(home, fn_name)
                wrapped = (self._aggregated(name, orig) if name in workloads.HOT
                           else self.spanned(name, orig))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def spanned(self, name, fn):
        """`fn` wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1], clock(), 0.0, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                stack.pop()
                spans[idx][3] = clock()
        return traced

    def _aggregated(self, name, fn):
        hot, stack, clock = self.hot, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (stack[-1], name)
            acc = hot.get(key)
            if acc is None:
                acc = hot[key] = [0, 0.0, 0]
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                acc[2] += 1
                raise
            finally:
                acc[0] += 1
                acc[1] += clock() - start
        return traced

    def summary(self):
        """{name: {calls, busy_s, self_s, raised}} over all recorded spans.

        busy_s is inclusive and counts only the outermost call of a name;
        self_s subtracts the time of wrapped callees.
        """
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0}
                 for name in workloads.layer_names()}
        child_s = [0.0] * len(self.spans)
        for (parent, name), (calls, secs, raised) in self.hot.items():
            st = stats[name]
            st["calls"] += calls
            st["busy_s"] += secs
            st["self_s"] += secs
            st["raised"] += raised
            child_s[parent] += secs
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, parent, start, end, raised) in enumerate(self.spans):
            st = stats.get(name)
            if st is None:
                continue
            st["calls"] += 1
            st["self_s"] += end - start - child_s[idx]
            st["raised"] += int(raised)
            if not self._nested_in_same(idx):
                st["busy_s"] += end - start
        return stats

    def _nested_in_same(self, idx):
        name, parent = self.spans[idx][0], self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


def run_task(task):
    """Call the CLI layer for one task; returns (header, rows)."""
    # the package itself is imported, and timed, in main()
    from ldpc_moments import cli
    from ldpc_moments.genfun import EnsembleParams

    cmd = task["cmd"]
    if cmd == "verify":
        rows, _ = cli.run_verify(task["suite"])
        return cli.VERIFY_HEADER, rows
    params = EnsembleParams(task["l"], task["r"])
    kind = task["kind"]
    if cmd == "bound":
        return cli.BOUND_HEADER, cli.run_bound_curve(params, kind, [task["w"]],
                                                     workloads.EPSILON)
    if cmd == "table":
        return cli.TABLE_HEADER, cli.run_table([(task["l"], task["r"])], kind,
                                               workloads.EPSILON)
    if cmd == "exact":
        return cli.EXACT_HEADER, cli.run_exact(params, kind, task["n"], task["W"])
    if cmd == "mc":
        return cli.MC_HEADER, cli.run_mc(params, kind, task["n"], task["W"],
                                         task["samples"], task["seed"])
    raise ValueError(f"unknown task command {cmd!r}")


def _row_outcome(row):
    bound = row.get("bound")
    if isinstance(bound, str) and bound not in VERDICTS:
        return "error"
    return "ok"


def execute(task):
    """Run and render one task; a failure is recorded, never propagated."""
    from ldpc_moments import cli
    from ldpc_moments.errors import SolverError

    try:
        header, rows = run_task(task)
        text = cli.render_csv(header, rows)
    except (SolverError, ValueError) as exc:
        # the CLI reports these with a coded exit status
        return {"outcomes": ["error"], "lines": [f"!error:{type(exc).__name__}"],
                "detail": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # the CLI would die with a traceback here
        return {"outcomes": ["crash"], "lines": [f"!crash:{type(exc).__name__}"],
                "detail": f"{type(exc).__name__}: {exc}"}
    return {"outcomes": [_row_outcome(row) for row in rows],
            "lines": text.splitlines()[1:], "detail": None}


def peak_rss_kb():
    """Peak resident set of this process since it started its program.

    ru_maxrss would not do: Linux carries the parent's peak over the exec,
    so a large parent would show as the worker's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    spawn = float(sys.argv[1])
    package = importlib.import_module("ldpc_moments")
    setup_s = time.monotonic() - spawn
    job = json.load(sys.stdin)
    tracer, run = None, execute
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        run = tracer.spanned("row", execute)
    clock = time.perf_counter
    results = []
    setup_calib = [calib.sample() for _ in range(CALIB_SAMPLES)]
    before = setup_calib[-1]
    for task in job["tasks"]:
        start = clock()
        result = run(task)
        result["s"] = clock() - start
        result["key"] = task["key"]
        after = calib.sample()
        result["calib_s"] = [before, after]
        before = after
        results.append(result)
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_kb() / 1024.0,
           "package": package.__file__, "results": results,
           "setup_calib_s": setup_calib,
           "layers": tracer.summary() if tracer is not None else None}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
