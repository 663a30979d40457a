"""Benchmark worker: one fresh interpreter that runs one workload.

``run.py`` starts it with the manifest of one pass of ops.  The worker stamps
the clock when the interpreter hands it control, after ``import empathica``
and after loading the manifest; with ``--setup-only`` it prints those stamps
and exits.  Otherwise it repeats the pass, timing each op alone, and checks
every op's outputs outside the timed section.  It stops once the first pass
is complete and ``--seconds`` have passed.  Each op is timed on the wall
clock and on the process's CPU clock.  Between ops the worker samples the
host's speed (``speed.py``), and each op's CPU time is also given at
reference speed.  Then it runs the known-defect probe once, untimed.

With ``--trace`` each op runs twice, untraced and traced in alternating
order: the traced run records a span around every library call, and the pair
gives the tracing overhead.  The result, with counters, digest and spans,
goes to the files named on the command line.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

CLOCK_EVERY_S = 0.025  # speed sample interval of an untraced run


def _untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory as [id, parent, op, name, start, end, failed]."""

    def __init__(self):
        self.spans = []
        self.parent = None

    def begin_op(self, op_id: int, kind: str) -> None:
        self.parent = len(self.spans)
        self.spans.append([self.parent, None, op_id, f"op.{kind}", time.perf_counter(), 0.0, False])

    def end_op(self, failed: bool) -> None:
        span = self.spans[self.parent]
        span[5] = time.perf_counter()
        span[6] = failed

    def call(self, name, fn, *args):
        start = time.perf_counter()
        failed = True
        try:
            out = fn(*args)
            failed = False
            return out
        finally:
            self.spans.append(
                [len(self.spans), self.parent, self.spans[self.parent][2], name, start,
                 time.perf_counter(), failed]
            )


class Runner:
    def __init__(self, ops_mod, manifest: dict, work: Path):
        self.ops = ops_mod
        self.specs = manifest["ops"]
        self.probe = manifest["probe"]
        self.unit_item = ops_mod.UNIT_ITEM[manifest["workload"]]
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.first_digests: dict[int, str] = {}
        self.pass_counters: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.probe_counters: dict[str, int] = {}
        self.unexpected: list[dict] = []
        # [op id, wall seconds, units, failed, (start, CPU seconds)]; after the
        # loop the last field becomes the CPU seconds at reference speed.
        self.records: list[list] = []
        self.layer_items: dict[str, int] = {}
        self.layer_failed: dict[str, int] = {}

    def execute(self, spec, call):
        run = self.ops.OPS[spec["kind"]][0]
        start, cpu = time.perf_counter(), time.process_time()
        try:
            res, err = run(spec, call, self.inputs, self.out), None
        except Exception as exc:  # a failed op is recorded, not fatal
            res, err = None, exc
        return start, time.perf_counter() - start, time.process_time() - cpu, res, err

    def settle(self, spec, pass_no: int, res, err, traced: bool,
               probe: bool = False) -> tuple[bool, int]:
        """Check one op's outputs and count it; returns (failed, units).
        Probe ops count only in the probe counters."""
        _, check, items_of = self.ops.OPS[spec["kind"]]
        if err is not None:
            failures = [(self.ops.failing_function(err), f"{type(err).__name__}: {err}")]
        else:
            failures = check(spec, res)
        outputs = res["outputs"] if res is not None else []
        h = hashlib.sha256(f"{spec['id']}\n".encode())
        for producer, text in outputs:
            h.update(producer.encode())
            h.update(text.encode())
        if failures:
            h.update(repr(failures[0]).encode())
        digest = self.first_digests.setdefault(spec["id"], h.hexdigest())
        if digest != h.hexdigest():
            failures = failures or [("bench", "output differs from the first run of the op")]
        counts = {"ops": 1, "bytes": sum(len(text.encode()) for _, text in outputs)}
        if failures:
            fn, reason = failures[0]
            defect = self.ops.defect_of(fn, reason)
            counts["failed"] = 1
            counts[f"defect.{defect}"] = 1
            if defect == "unexpected" and len(self.unexpected) < 20:
                self.unexpected.append({"op": spec["id"], "kind": spec["kind"],
                                        "function": fn, "reason": reason})
            if traced and not probe:
                self.layer_failed[fn] = self.layer_failed.get(fn, 0) + 1
            units = 0
        else:
            items = items_of(spec, res)
            units = items[self.unit_item] if self.unit_item else 1
            counts["units"] = units
            for key, label in (("equilibria.region_map.items", "cells"),
                               ("dynamics.simulate.items", "steps"),
                               ("hierarchy.analyze_hierarchy.items", "levels")):
                if key in items:
                    counts[label] = items[key]
            if traced and not probe:
                for key, v in items.items():
                    self.layer_items[key] = self.layer_items.get(key, 0) + v
                for producer, text in outputs:
                    for key in (f"{producer}.bytes", "io.write_text.bytes"):
                        self.layer_items[key] = self.layer_items.get(key, 0) + len(text.encode())
        if probe:
            for key, v in counts.items():
                self.probe_counters[key] = self.probe_counters.get(key, 0) + v
        elif not traced:
            for key, v in counts.items():
                self.total[key] = self.total.get(key, 0) + v
                if pass_no == 0:
                    self.pass_counters[key] = self.pass_counters.get(key, 0) + v
        return bool(failures), units

    def loop(self, seconds: float, tracer: Tracer | None, clock: speed.Clock) -> dict:
        """Run the pass over and over; stop once the first pass is complete
        and ``seconds`` have passed."""
        begin = time.perf_counter()
        traced_wall = untraced_wall = 0.0
        size = len(self.specs)
        for n in itertools.count():
            spec, passes = self.specs[n % size], n // size
            if tracer is None:
                clock.maybe_take()
                start, dt, cpu, res, err = self.execute(spec, _untraced)
                failed, units = self.settle(spec, passes, res, err, False)
                self.records.append([spec["id"], dt, units, failed, (start, cpu)])
            else:
                traced_first = n % 2 == 1
                for traced in (traced_first, not traced_first):
                    if traced:
                        tracer.begin_op(spec["id"], spec["kind"])
                        _, dt, _, res, err = self.execute(spec, tracer.call)
                        tracer.end_op(err is not None)
                        traced_wall += dt
                    else:
                        _, dt, _, res, err = self.execute(spec, _untraced)
                        untraced_wall += dt
                    self.settle(spec, passes, res, err, traced)
                    res = None
            if n + 1 >= size and time.perf_counter() - begin >= seconds:
                break
        clock.take()
        return {
            "ops": n + 1,
            "passes": (n + 1) / size,
            "wall_s": time.perf_counter() - begin,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
        }

    def run_probe(self) -> None:
        """Each known-defect probe op once, untimed."""
        for spec in self.probe:
            _, _, _, res, err = self.execute(spec, _untraced)
            self.settle(spec, 0, res, err, False, probe=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("work", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import empathica  # noqa: F401  (timed: the import a CLI run pays)

    t_import = time.perf_counter()
    manifest = json.loads((args.work / "manifest.json").read_text())
    import ops

    t_loaded = time.perf_counter()
    stamps = {"start": T_START, "imported": t_import, "loaded": t_loaded,
              "empathica": empathica.__file__}
    if args.setup_only:
        print(json.dumps(stamps))
        return 0

    runner = Runner(ops, manifest, args.work)
    tracer = Tracer() if args.trace else None
    clock = speed.Clock(CLOCK_EVERY_S)
    clock.take()
    timing = runner.loop(args.seconds, tracer, clock)
    for record in runner.records:
        start, cpu = record[4]
        record[4] = clock.normalise(cpu, start, record[1])
    timing["chunk_s"] = clock.seconds
    runner.run_probe()
    pass_digest = hashlib.sha256(
        "".join(runner.first_digests[i] for i in sorted(runner.first_digests)).encode()
    ).hexdigest()
    result = {
        "stamps": stamps,
        "timing": timing,
        "records": runner.records,
        "pass_counters": runner.pass_counters,
        "total_counters": runner.total,
        "probe_counters": runner.probe_counters,
        "digest": pass_digest,
        "unexpected": runner.unexpected,
        "known_defects": ops.KNOWN_DEFECTS,
        "layer_items": runner.layer_items,
        "layer_failed": runner.layer_failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        with args.spans.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans"] = str(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
