"""comptrans benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ambiguity --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing needs
to be installed, and the run refuses to start without that source tree.

A run builds the workload from its seed, sets up the library several times
(fresh import of ``comptrans``, then load and validate every generated
grammar text) and reports the median as ``setup_s``. It then runs one
untimed warm-up pass over the workload's requests, followed by whole timed
passes until the time spent inside requests reaches ``--seconds``. Every
output is checked against the workload's reference after its request is
timed. A request that raises, or whose output is wrong, counts as failed;
the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with timing wrappers around the library's public
functions, and prints per-layer metrics: seconds and counts per request,
plus the traced/untraced time ratio. The last line of standard output is
the JSON result; a fuller record (provenance, failure types, sample counts,
counter bases) goes to ``bench/results/``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import TRANSLATE_STAGES, Patches, Tracer  # noqa: E402

SETUP_REPEATS = 25
# traced passes stop early past this many spans (about 40 bytes each)
SPAN_BUDGET = 600_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

# name -> (unit, span or counter it is read from)
PER_LAYER = {
    "parsing.morsynan_s": ("s", "parsing.morsynan"),
    "parsing.source_trees": ("count", "parsing.source_trees"),
    "parsing.tokens": ("count", "parsing.tokens"),
    "parsing.morsyngen_s": ("s", "parsing.morsyngen"),
    "pipeline.seman_s": ("s", "pipeline.seman"),
    "pipeline.sem_trees": ("count", "pipeline.sem_trees"),
    "pipeline.semgen_s": ("s", "pipeline.semgen"),
    "pipeline.target_candidates": ("count", "pipeline.target_candidates"),
    "pipeline.filter_s": ("s", "pipeline.filter"),
    "pipeline.filter_yield": ("1", "pipeline.filter_calls"),
    "pipeline.translate_s": ("s", "pipeline.translate"),
    "pipeline.translate_other_s": ("s", "pipeline.translate"),
    "trees.canonical_sort_s": ("s", "trees.canonical_sort"),
    "render.json_s": ("s", "render.json"),
    "render.bytes": ("B", "render.bytes"),
    "completeness.homomorphism_s": ("s", "completeness.homomorphism"),
    "completeness.n1_s": ("s", "completeness.n1"),
    "completeness.nn_s": ("s", "completeness.nn"),
    "completeness.labels_s": ("s", "completeness.labels"),
    "completeness.witness_s": ("s", "completeness.witness"),
    "completeness.witness_candidates": ("count", "completeness.witness_candidates"),
    "completeness.violations": ("count", "completeness.violations"),
    "trees.enumerate_s": ("s", "trees.enumerate"),
    "trees.enumerated": ("count", "trees.enumerated"),
    "pipeline.well_formed_sem_trees_s": ("s", "pipeline.well_formed_sem_trees"),
    "pipeline.translate_sem_s": ("s", "pipeline.translate_sem"),
    "pipeline.translate_sem_calls": ("count", "pipeline.translate_sem_calls"),
    "loader.load_s": ("s", "loader.load"),
    "loader.lines": ("count", "loader.lines"),
    "model.validate_s": ("s", "model.validate"),
    "bench.trace_overhead": ("1", None),
}

SETUP_LAYERS = ("loader.load_s", "loader.lines", "model.validate_s")


class WrongOutput(Exception):
    """The library answered, but not with the workload's reference output."""


# -- set-up -----------------------------------------------------------------


class Library:
    """One fresh import of comptrans, with the workload's pairs loaded."""

    def __init__(self, wl: workloads.Workload, tracer: Tracer, patches: Patches):
        for name in [m for m in sys.modules if m == "comptrans" or m.startswith("comptrans.")]:
            del sys.modules[name]
        self.ct = importlib.import_module("comptrans")
        self.render = importlib.import_module("comptrans.render")
        if tracer.enabled:
            patches.install_loader(importlib.import_module("comptrans.loader"))
        ct = self.ct
        self.pairs = []
        for spec in wl.pairs:
            with tracer.span("loader.load"):
                sc = ct.parse_file(spec.semantics).semantics[0]
                env = {sc.name: sc}
                source = ct.load_grammar(spec.source, env=env)
                target = ct.load_grammar(spec.target, env=env)
            with tracer.span("model.validate"):
                pair = ct.validate_pair(source, target)
            corr = ct.CategoryCorrespondence(
                tuple(
                    (cat, ct.CorrespondenceEntry(tuple(sorted(cats)), label))
                    for cat, cats, label in sorted(spec.correspond)
                )
            )
            self.pairs.append((pair, corr))
        tracer.count("loader.lines", sum(len(t.splitlines()) for t in wl.texts()))


def set_up(wl, tracer, patches):
    """Import and load ``SETUP_REPEATS`` times; the last library serves the requests."""
    times, per_rep = [], []
    for rep in range(SETUP_REPEATS):
        tracer.set_op(f"setup-{rep}")
        first_span = len(tracer)
        counts_before = Counter(tracer.counts)
        start = perf_counter()
        lib = Library(wl, tracer, patches)
        times.append(perf_counter() - start)
        sums = Counter()
        for i in range(first_span, len(tracer)):
            sums[tracer.name(i)] += tracer.end[i] - tracer.start[i]
        per_rep.append((sums, tracer.counts - counts_before))
    tracer.set_op(None)
    return lib, times, per_rep


# -- requests ---------------------------------------------------------------


def translate_request(lib: Library, wl, case, tracer: Tracer):
    pair, _ = lib.pairs[case.pair]
    render = lib.render
    with tracer.span("pipeline.translate"):
        trace = lib.ct.translate(pair, case.tokens)
    with tracer.span("render.json"):
        doc = render.envelope(
            "translate",
            source=pair.source.name,
            target=pair.target.name,
            utterance=list(case.tokens),
            translations=[list(u) for u in trace.target_utterances],
            trace=render.trace_to_json(trace) if case.trace_counts else None,
        )
        text = render.dump_json(doc)
    if tracer.enabled:
        tracer.count("render.bytes", len(text.encode("utf-8")))
    return len(trace.source_trees), text


def verify_translate(case, output) -> None:
    n_source_trees, text = output
    doc = json.loads(text)
    got = tuple(tuple(u) for u in doc["translations"])
    if got != case.translations:
        raise WrongOutput(f"{len(got)} translations, expected {len(case.translations)}")
    if n_source_trees != case.source_trees:
        raise WrongOutput(f"{n_source_trees} source trees, expected {case.source_trees}")
    if case.trace_counts:
        trace = doc["trace"]
        counts = (
            len(trace["sem_trees"]),
            len(trace["target_trees"]),
            sum(t["well_formed"] for t in trace["target_trees"]),
        )
        if counts != case.trace_counts or len(trace["source_trees"]) != case.source_trees:
            raise WrongOutput(f"trace counts {counts}, expected {case.trace_counts}")


def check_request(lib: Library, wl, case, tracer: Tracer):
    """Certify one pair the way a grammar author's CI step does: all five checks."""
    ct, render = lib.ct, lib.render
    pair, corr = lib.pairs[case.pair]
    runs = (
        ("homomorphism", lambda: ct.check_homomorphism(pair)),
        ("n1", lambda: ct.check_n1_completeness(pair)),
        ("nn", lambda: ct.check_nn_completeness(pair, corr)),
        ("labels", lambda: ct.validate_labels(pair, corr, max_depth=wl.depth)),
        ("witness", lambda: ct.witness_report(pair, wl.depth)),
    )
    texts = []
    for condition, run in runs:
        with tracer.span("completeness." + condition):
            report = run()
        tracer.count("completeness.violations", len(report.violations))
        extra = {"depth": wl.depth} if condition == "witness" else {}
        with tracer.span("render.json"):
            doc = render.envelope(
                "witness" if condition == "witness" else "check",
                source=pair.source.name,
                target=pair.target.name,
                report=render.report_to_json(report),
                **extra,
            )
            texts.append(render.dump_json(doc))
    if tracer.enabled:
        tracer.count("render.bytes", sum(len(t.encode("utf-8")) for t in texts))
    return texts


def verify_check(case, texts) -> None:
    reports = [json.loads(t)["report"] for t in texts]
    got = tuple((c, r["verdict"]) for c, r in zip(workloads.CONDITIONS, reports))
    if got != case.verdicts:
        raise WrongOutput(f"verdicts {got}, expected {case.verdicts}")
    if reports[-1]["witness"] != case.witness:
        raise WrongOutput(f"witness {reports[-1]['witness']}, expected {case.witness}")


# -- the closed loop --------------------------------------------------------


class Loop:
    """Whole passes over the workload's requests, one at a time."""

    def __init__(self, lib, wl, tracer):
        self.lib, self.wl, self.tracer = lib, wl, tracer
        if isinstance(wl.cases[0], workloads.TranslateCase):
            self.request, self.verify = translate_request, verify_translate
        else:
            self.request, self.verify = check_request, verify_check
        self.attempted = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.ok_latencies: list[float] = []
        self.failed_latencies: list[float] = []
        self.pass_times: list[float] = []

    def one_pass(self, record: bool) -> None:
        pass_time = 0.0
        for i, case in enumerate(self.wl.cases):
            if self.tracer.enabled:
                self.tracer.set_op(f"{len(self.pass_times)}.{i}")
            self.attempted += 1
            ok = False
            start = perf_counter()
            try:
                with self.tracer.span("bench.request"):
                    output = self.request(self.lib, self.wl, case, self.tracer)
            except Exception as e:  # any library error fails this request, not the run
                elapsed = perf_counter() - start
                self.failures[type(e).__name__] += 1
                print(f"request {i} raised {type(e).__name__}: {e}", file=sys.stderr)
            else:
                elapsed = perf_counter() - start
                try:
                    self.verify(case, output)
                    ok = True
                except (WrongOutput, KeyError, TypeError, ValueError) as e:
                    self.wrong += 1
                    self.failures["WrongOutput"] += 1
                    print(f"wrong output on request {i}: {e!r}", file=sys.stderr)
                output = None
            pass_time += elapsed
            if record:
                (self.ok_latencies if ok else self.failed_latencies).append(elapsed)
        self.tracer.set_op(None)
        if record:
            self.pass_times.append(pass_time)

    def run_for(self, seconds: float) -> None:
        """Timed passes until the time inside requests reaches ``seconds``; at least one."""
        spent = 0.0
        while True:
            self.one_pass(record=True)
            spent += self.pass_times[-1]
            if spent >= seconds:
                return

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def percentile(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an already ranked list."""
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def end_to_end(loop: Loop, setup_times) -> tuple[dict, dict]:
    # failed requests rank behind every successful one: they miss any latency limit
    ranked = sorted(loop.ok_latencies) + sorted(loop.failed_latencies)
    samples = len(ranked)
    values = {
        "setup_s": statistics.median(setup_times),
        # whole passes do the same work, so the median pass shrugs off a slow spell
        "ops_per_s": len(loop.ok_latencies) / len(loop.pass_times) / statistics.median(loop.pass_times),
        "latency_p50_ms": percentile(ranked, 0.5) * 1e3,
        "latency_p90_ms": percentile(ranked, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }
    info = {
        "timed_requests": samples,
        "samples_above_p90": samples - math.ceil(0.9 * samples),
        "passes": len(loop.pass_times),
        "requests_per_pass": len(loop.wl.cases),
        "setup_times_s": setup_times,
        "pass_times_s": loop.pass_times,
    }
    return values, info


# -- per-layer metrics ------------------------------------------------------


def per_layer(tracer, per_rep, traced_first_span, traced_ops, untraced_pass, traced_pass):
    """Per-request means over the traced passes; set-up layers per set-up."""
    seconds = Counter()
    translate_self = Counter()  # translate span -> its time outside the stage spans
    for i in range(traced_first_span, len(tracer)):
        name, duration = tracer.name(i), tracer.end[i] - tracer.start[i]
        seconds[name] += duration
        parent = tracer.parent[i]
        if name == "pipeline.translate":
            translate_self[i] += duration
        elif name in TRANSLATE_STAGES and parent >= 0 and tracer.name(parent) == "pipeline.translate":
            translate_self[parent] -= duration
    other = sum(translate_self.values())
    counts = tracer.counts
    values, absent = {}, {}
    for metric, (_, source) in PER_LAYER.items():
        if metric in SETUP_LAYERS or source is None:
            continue
        present = seconds.get(source) or counts.get(source)
        if metric == "pipeline.translate_other_s":
            value = other / traced_ops
        elif metric == "pipeline.filter_yield":
            calls = counts["pipeline.filter_calls"]
            value = counts["pipeline.filter_kept"] / calls if calls else 0.0
        elif metric.endswith("_s"):
            value = seconds[source] / traced_ops
        else:
            value = counts[source] / traced_ops
        values[metric] = value
        if not present:
            absent[metric] = f"no '{source}' span or count: this workload never reaches it"
    values["loader.load_s"] = statistics.median(sums["loader.load"] for sums, _ in per_rep)
    values["model.validate_s"] = statistics.median(sums["model.validate"] for sums, _ in per_rep)
    values["loader.lines"] = per_rep[-1][1]["loader.lines"]
    values["bench.trace_overhead"] = statistics.median(traced_pass) / statistics.median(untraced_pass)
    return {m: values[m] for m in PER_LAYER}, absent


def pass_counts(tracer: Tracer, marks: list[Counter]) -> dict[str, list[int]]:
    """Counters per traced pass, to show they repeat exactly."""
    out: dict[str, list[int]] = {}
    for before, after in zip(marks, marks[1:]):
        diff = after - before
        for name in set(before) | set(after):
            out.setdefault(name, []).append(diff.get(name, 0))
    return out


# -- provenance -------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "client": "closed loop, one client, no threads",
        "machine": "no CPU pinning; no machine settings changed; other tenants may share the host",
    }


# -- main -------------------------------------------------------------------


def run(args, wl: workloads.Workload) -> tuple[dict, dict, Tracer]:
    """One run of ``wl``: the result line, the full record, and the spans."""
    traced = bool(args.trace)
    tracer = Tracer(traced)
    patches = Patches(tracer)
    lib, setup_times, per_rep = set_up(wl, tracer, patches)

    tracer.enabled = False  # end-to-end passes run untraced, also in a traced run
    loop = Loop(lib, wl, tracer)
    gc.collect()
    loop.one_pass(record=False)  # warm-up: lazy per-grammar indexes, allocator
    record = {"provenance": provenance(args)}
    if not traced:
        loop.run_for(args.seconds)
        metrics, info = end_to_end(loop, setup_times)
        record.update(info)
    else:
        loop.run_for(args.seconds / 2)
        untraced_passes = list(loop.pass_times)
        patches.install_ops(importlib.import_module("comptrans.pipeline"), importlib.import_module("comptrans.completeness"))
        tracer.enabled = True
        tracer.counts.clear()
        first_span = len(tracer)
        marks = [Counter()]
        traced_passes: list[float] = []
        # at least two passes, so that counters can be seen to repeat
        while len(traced_passes) < 2 or (
            sum(traced_passes) < args.seconds / 2 and len(tracer) - first_span < SPAN_BUDGET
        ):
            loop.one_pass(record=True)
            traced_passes.append(loop.pass_times[-1])
            marks.append(Counter(tracer.counts))
        patches.remove()
        tracer.enabled = False
        traced_ops = len(traced_passes) * len(wl.cases)
        metrics, absent = per_layer(tracer, per_rep, first_span, traced_ops, untraced_passes, traced_passes)
        by_pass = pass_counts(tracer, marks)
        record.update(
            {
                "traced_requests": traced_ops,
                "traced_passes": len(traced_passes),
                "untraced_passes": len(untraced_passes),
                "trace_overhead_base_s": {
                    "untraced_pass_median": statistics.median(untraced_passes),
                    "traced_pass_median": statistics.median(traced_passes),
                },
                "filter_yield_base": {
                    "kept": tracer.counts["pipeline.filter_kept"],
                    "candidates": tracer.counts["pipeline.filter_calls"],
                },
                "counts_per_pass": {k: v[0] for k, v in sorted(by_pass.items())},
                "counters_not_repeating": sorted(k for k, v in by_pass.items() if len(set(v)) > 1),
                "absent": absent,
                "spans": len(tracer),
            }
        )

    units = END_TO_END_UNITS if not traced else {m: u for m, (u, _) in PER_LAYER.items()}
    record.update(
        {
            "attempted": loop.attempted,
            "failed": loop.failed,
            "failed_ratio": loop.failed / loop.attempted,
            "failures_by_type": dict(loop.failures),
            "wrong_outputs": loop.wrong,
        }
    )
    result = {
        "correct": loop.wrong == 0 and loop.failed < loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record["result"] = result
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comptrans" / "__init__.py").is_file():
        print(f"error: no comptrans source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the library's default caps, whatever the caller's environment says
    os.environ.pop("COMPTRANS_AMBIGUITY_CAP", None)

    result, record, tracer = run(args, workloads.build(args.workload, args.seed))

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(
        f"{args.workload} seed {args.seed}: {record['attempted']} requests, {record['failed']} failed "
        f"(failed_ratio {record['failed_ratio']}; by type {record['failures_by_type']})"
    )
    if args.trace:
        print(f"  {record['traced_requests']} traced requests, {record['spans']} spans")
    else:
        print(f"  {record['timed_requests']} timed requests, {record['samples_above_p90']} above p90")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        if record["absent"]:
            print("  zero because never reached here: " + ", ".join(sorted(record["absent"])))
        if record["counters_not_repeating"]:
            print("  counters differing between passes: " + ", ".join(record["counters_not_repeating"]))
    print(f"  full record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
