"""The offline fit in a fresh process: ``read_csv`` then ``fit_model``.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; prints
one JSON object on its last stdout line.  Reads the CSV (or opens the
first column store) ``--reads`` times, fits at default settings until
``--seconds`` have passed and at least ``--min-fits`` fits are done, going
round the stores when several are given, then saves the fit of the first
source as the artifact, times ``save`` / ``load`` and checks the round
trip.  ``--traced-fits N`` adds N fits of the first source inside
``obs.activate(Trace)``, as ``repro fit --trace`` runs them, each after an
untraced fit of the same table, and writes the last one's Chrome trace to
``--chrome``.
"""

from __future__ import annotations

import argparse
import json
import time

from common import proc_hwm_mb

SAVE_LOAD_REPEATS = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv")
    source.add_argument("--store", action="append")
    parser.add_argument("--out", required=True)
    parser.add_argument("--query", required=True, help="JSON query spec")
    parser.add_argument("--reads", type=int, default=1)
    parser.add_argument("--min-fits", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced-fits", type=int, default=0)
    parser.add_argument("--chrome", default=None)
    args = parser.parse_args()

    from repro import obs
    from repro.core.model import XInsightModel, fit_model
    from repro.core.reporting import report_to_dict
    from repro.core.session import ExplainSession
    from repro.data.io import read_csv
    from repro.data.query import query_from_spec
    from repro.data.table import Table

    read_s = []
    for _ in range(args.reads):
        started = time.perf_counter()
        table = read_csv(args.csv) if args.csv else Table.from_store(args.store[0])
        read_s.append(time.perf_counter() - started)
    tables = [table] + [Table.from_store(store) for store in (args.store or [])[1:]]

    fit_s, fit_cpu_s, profiles = [], [], []
    window_started = time.perf_counter()
    while len(fit_s) < args.min_fits or (
        time.perf_counter() - window_started < args.seconds
    ):
        started, cpu0 = time.perf_counter(), time.process_time()
        fitted = fit_model(tables[len(fit_s) % len(tables)])
        fit_s.append(time.perf_counter() - started)
        fit_cpu_s.append(time.process_time() - cpu0)
        profiles.append(fitted.fit_profile)
        if len(fit_s) == 1:
            model = fitted

    # Traced fits alternate with untraced fits of the same table, so the
    # difference between the two is the cost of the fit's tracing alone.
    paired_fit_s, traced_fit_s = [], []
    for _ in range(args.traced_fits):
        started = time.perf_counter()
        fit_model(table)
        paired_fit_s.append(time.perf_counter() - started)
        trace = obs.Trace(name="fit")
        started = time.perf_counter()
        with obs.activate(trace):
            model = fit_model(table)  # same data, so it serves as well
        traced_fit_s.append(time.perf_counter() - started)
        profiles.append(model.fit_profile)
        trace.finish()
        trace.write_chrome_trace(args.chrome)

    save_ms, load_ms = [], []
    for _ in range(SAVE_LOAD_REPEATS):
        started = time.perf_counter()
        model.save(args.out)
        save_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        loaded = XInsightModel.load(args.out)
        load_ms.append((time.perf_counter() - started) * 1e3)

    hwm_mb = proc_hwm_mb()  # the fit's own peak, before the check's sessions

    query = query_from_spec(json.loads(args.query), table)

    # Equal fingerprints mean equal bin specs, so both sessions can share
    # one transform of the table.
    graph_table = model.transform(table)

    def answer(m):
        session = ExplainSession(m, table, graph_table=graph_table)
        return json.dumps(report_to_dict(session.explain(query)), sort_keys=True)

    checks = {
        "fingerprint_kept": loaded.fingerprint() == model.fingerprint(),
        "month_quarter_fd": loaded.fd_graph.has_fd("Month", "Quarter"),
        "loaded_answer_equal": answer(loaded) == answer(model),
    }
    print(json.dumps({
        "read_s": read_s,
        "fit_s": fit_s,
        "fit_cpu_s": fit_cpu_s,
        "paired_fit_s": paired_fit_s,
        "traced_fit_s": traced_fit_s,
        "profiles": profiles,
        "save_ms": save_ms,
        "load_ms": load_ms,
        "checks": checks,
        "hwm_mb": hwm_mb,
    }))


if __name__ == "__main__":
    main()
