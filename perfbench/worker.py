"""One benchmark interpreter: import the CLI, load the run's configs, then run passes.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH. It
prints ``ready`` once ``sirspa.cli`` is imported and every config is loaded
through ``sirspa.config.load_config``; the parent times set-up up to that
line. Modes:

- ``setup``: stop there.
- ``run``: call ``sirspa.cli.main`` once per invocation, one at a time,
  pass after pass, while the next pass should end within ``--seconds``.
- ``trace``: one untraced pass, then two traced passes whose spans give the
  per-layer metrics.

The last stdout line is a JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time


def _run_pass(cli, plan: list[dict], log) -> tuple[float, list[int], str]:
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for inv in plan:
            codes.append(cli.main(inv["argv"]))
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for inv in plan:
        with open(inv["csv"], "rb") as fh:
            digest.update(fh.read())
    return elapsed, codes, digest.hexdigest()


def _csv_rows(plan: list[dict]) -> int:
    rows = 0
    for inv in plan:
        with open(inv["csv"]) as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args()

    import sirspa.cli as cli
    from sirspa.config import load_config

    with open(args.plan) as fh:
        plan = json.load(fh)
    for inv in plan:
        load_config(inv["config"])
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"sirspa": os.path.dirname(cli.__file__)}
    with open(os.devnull, "w") as log:
        if args.mode == "run":
            times, digests, codes = [], set(), []
            start = time.perf_counter()
            # start another pass only if it should end within the budget
            while not times or time.perf_counter() - start + times[-1] <= args.seconds:
                elapsed, codes, digest = _run_pass(cli, plan, log)
                times.append(elapsed)
                digests.add(digest)
            result.update(pass_s=times, codes=codes, deterministic=len(digests) == 1)
        else:
            import tracing

            untraced, codes, digest = _run_pass(cli, plan, log)
            untraced_rows = _csv_rows(plan)
            passes = []
            for _ in range(2):
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    elapsed, _, traced_digest = _run_pass(cli, plan, log)
                finally:
                    tracer.uninstall()
                passes.append((elapsed, tracer.spans, traced_digest))
            elapsed, spans, traced_digest = passes[-1]
            metrics = tracing.layer_metrics(spans)
            first = tracing.layer_metrics(passes[0][1])
            result.update(
                codes=codes,
                pass_s=[untraced],
                deterministic=traced_digest == digest == passes[0][2],
                layers=metrics,
                traced_s=elapsed,
                traced_rows=tracing.traced_rows(spans),
                untraced_rows=untraced_rows,
                spans=len(spans),
                exact_counts_repeat=all(first[k] == metrics[k] for k in tracing.EXACT_COUNTS),
            )
            if args.spans:
                tracing.write_spans(spans, args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
