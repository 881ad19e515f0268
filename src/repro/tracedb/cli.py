"""``repro-trace``: inspect, query and compact TraceDB trace stores.

Examples::

    repro-trace summarize traces/            # per-worker shape of the store
    repro-trace summarize traces/ --overlap  # plus map-reduce overlap totals
    repro-trace query traces/ --worker selfplay_worker_3 --category GPU --limit 10
    repro-trace query traces/ --phase sgd_updates --count
    repro-trace compact traces/ --out traces_compacted/ --chunk-events 100000

``compact`` rewrites a ``tracedb-v2`` store with a fresh chunking (merging
many small chunks into full-size ones, or splitting large ones).
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-trace", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize", help="print per-worker shape of a trace store")
    summarize.add_argument("directory")
    summarize.add_argument("--overlap", action="store_true",
                           help="also run the map-reduce overlap pass and print category totals")
    summarize.add_argument("--jobs", type=int, default=None, help="map-phase pool size")
    summarize.add_argument("--mode", choices=["serial", "thread", "process"], default="thread",
                           help="map-phase executor (default: thread)")

    query = sub.add_parser("query", help="print matching stack events as JSON lines")
    query.add_argument("directory")
    query.add_argument("--worker", default=None)
    query.add_argument("--phase", default=None)
    query.add_argument("--category", default=None, action="append",
                       help="event category filter (repeatable)")
    query.add_argument("--start-us", type=float, default=None)
    query.add_argument("--end-us", type=float, default=None)
    query.add_argument("--limit", type=_non_negative_int, default=None,
                       help="print at most this many events")
    query.add_argument("--count", action="store_true", help="print only the number of matches")

    compact = sub.add_parser("compact", help="rewrite a store with fresh chunking")
    compact.add_argument("directory")
    compact.add_argument("--out", required=True, help="output store directory")
    compact.add_argument("--chunk-events", type=int, default=None,
                         help="records per chunk in the output store (default: store default)")
    return parser


def _cmd_summarize(args: argparse.Namespace) -> int:
    from .mapreduce import parallel_overlap
    from .store import TraceDB

    db = TraceDB(args.directory)
    summary = db.summary()
    header = f"{'worker':32s} {'chunks':>6s} {'events':>10s} {'ops':>8s} {'markers':>8s} {'span (s)':>10s}"
    print(f"trace store: {db.directory}")
    print(header)
    print("-" * len(header))
    for worker, info in summary.items():
        end_us = info["end_us"]
        span = f"{float(end_us) / 1e6:10.3f}" if end_us is not None else "         ?"
        print(f"{worker:32s} {info['chunks']:>6d} {info['events']:>10} {info['operations']:>8} "
              f"{info['markers']:>8} {span}")
        if info["phases"]:
            print(f"{'':32s}   phases: {', '.join(info['phases'])}")
    if args.overlap:
        result = parallel_overlap(db, max_workers=args.jobs, mode=args.mode)
        print()
        print(f"map-reduce overlap over {len(db.workers())} shard(s):")
        totals: dict = {}
        for op, cats in result.category_breakdown().items():
            for cat, us in cats.items():
                totals[cat] = totals.get(cat, 0.0) + us
        for cat in sorted(totals):
            print(f"  {cat:12s} {totals[cat] / 1e6:12.3f} s")
        print(f"  {'total':12s} {result.total_us(include_untracked=False) / 1e6:12.3f} s (tracked)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .store import TraceDB

    db = TraceDB(args.directory)
    filters = dict(worker=args.worker, phase=args.phase,
                   category=args.category if args.category else None,
                   start_us=args.start_us, end_us=args.end_us)
    if args.count:
        print(db.count_events(**filters))
        return 0
    for event in db.query(**filters, limit=args.limit):
        print(json.dumps(event.to_dict()))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .format import DEFAULT_CHUNK_EVENTS, interval_row, marker_row
    from .store import TraceDB
    from .writer import StreamingTraceWriter

    if Path(args.out).resolve() == Path(args.directory).resolve():
        raise ValueError("--out must differ from the input directory: in-place compaction "
                         "would overwrite chunks before they are read")
    db = TraceDB(args.directory)
    chunk_events = args.chunk_events if args.chunk_events is not None else DEFAULT_CHUNK_EVENTS
    writer = StreamingTraceWriter(args.out, chunk_events=chunk_events)
    in_chunks = 0
    for worker in db.workers():
        shard = writer.shard(worker)
        # Stream one input chunk at a time so compaction stays bounded-memory.
        for meta in db.chunks(worker):
            in_chunks += 1
            payload = db.chunk_payload(meta)
            for event in payload.events:
                shard.add_event(interval_row(event))
            for operation in payload.operations:
                shard.add_operation(interval_row(operation))
            for marker in payload.markers:
                shard.add_marker(marker_row(marker))
        writer.close_shard(worker, metadata=db.metadata(worker))
    writer.close()
    out_db = TraceDB(args.out)
    print(f"compacted {in_chunks} chunk(s) across {len(db.workers())} worker(s) "
          f"into {len(out_db.chunks())} chunk(s) at {args.out} "
          f"({writer.bytes_written()} bytes of chunk data)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"summarize": _cmd_summarize, "query": _cmd_query, "compact": _cmd_compact}
    try:
        return commands[args.command](args)
    except FileNotFoundError as exc:
        raise SystemExit(f"repro-trace: {exc}")
    except KeyError as exc:
        raise SystemExit(f"repro-trace: {exc.args[0] if exc.args else exc}")
    except ValueError as exc:
        raise SystemExit(f"repro-trace: {exc}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
