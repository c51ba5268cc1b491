"""One benchmark job: a single ``quasikin simulate`` call in a fresh process.

Run by ``run.py``, which sets the thread variables in this process's
environment before it starts, so they take effect when numpy loads.

    python3 perfbench/child.py --src SRC --config CFG --output DIR --result JSON
                               [--trace] [--fault NAME]

Times are taken with ``time.perf_counter`` from just before
``import quasikin.cli``: ``setup_s`` runs up to entry into ``vlasov.run``
(bracketed in every package namespace that holds it, ``cli`` among them),
``run_s`` is that one call, and ``wall_s`` ends when ``cli.main`` returns,
after diagnostics.csv and manifest.json are written.  ``--fault NAME`` replaces ``vlasov.NAME`` with a
function that raises, for the harness self-tests.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    clock = time.perf_counter
    marks = {}
    t0 = clock()
    import quasikin.cli as cli
    import quasikin.vlasov as vlasov

    from tracer import Tracer, replace_everywhere

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.fault:

        def fault(*_args, **_kwargs):
            raise RuntimeError(f"injected fault in {args.fault}")

        setattr(vlasov, args.fault, fault)

    inner_run = vlasov.run

    def bracketed_run(*a, **k):
        marks["run_start"] = clock()
        try:
            return inner_run(*a, **k)
        finally:
            marks["run_end"] = clock()

    replace_everywhere([(inner_run, bracketed_run)])
    rc = cli.main(["simulate", "--config", args.config, "--output", args.output])
    t_end = clock()

    result = {
        "rc": rc,
        "wall_s": t_end - t0,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if "run_end" in marks:
        result["setup_s"] = marks["run_start"] - t0
        result["run_s"] = marks["run_end"] - marks["run_start"]
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.result + ".spans.json")
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
