"""Which functions of ``src/repro`` no entry point calls.

    PYTHONPATH=src python benchmarks/reachability.py

Drives the repository's entry points in this one process under
``sys.setprofile`` (and ``threading.setprofile``): the four perfbench
workloads at ``--size tiny``; every ``rls-experiment`` experiment but
``findings`` on a small grid (``fig8`` also with a trace store); ``rls-prof``
dumping its store at finalize and ``rls-prof --streaming``; ``repro-trace
summarize`` / ``query`` / ``compact`` on the streamed store; and the five
examples at reduced sizes.  Every report, ``--out`` file and trace store goes
to a temporary directory, which is also the working directory while the
entry points run, so the tree stays clean.

Prints one JSON summary line, then one ``path:line name lines`` line per
unreached function, outermost first in file order.  ``functions`` counts
every ``def`` under ``src/repro`` (nested ones included) and ``unreached``
those never entered; ``function_lines`` and ``unreached_lines`` count the
lines of each outermost ``def`` once, so a nested ``def`` inside an unreached
one is neither listed nor counted again.  Code that only runs in a child
process (``repro.parallel``'s shard processes, ``--mode process`` map
pools) is not seen and shows as unreached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"


@dataclass(frozen=True)
class Function:
    path: str            #: relative to the repository root
    line: int            #: the ``def`` line
    first_line: int      #: the first decorator's line, else the ``def`` line
    name: str            #: dotted name within the module
    lines: int           #: first decorator (or ``def``) line to last line
    parent: Optional[Tuple[str, int]]  #: the enclosing ``def``'s (path, line)


def functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, in file order."""
    found: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str, parent: Optional[Tuple[str, int]]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(Function(relative, child.lineno, first,
                                          prefix + child.name, child.end_lineno - first + 1,
                                          parent))
                    visit(child, f"{prefix}{child.name}.", (relative, child.lineno))
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return found


# ------------------------------------------------------------- entry points
def _perfbench(work: Path) -> None:
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload_class in WORKLOADS.items():
        work_dir = work / f"perfbench-{name}"
        work_dir.mkdir()
        workload = workload_class(1, "tiny", str(work_dir))
        workload.setup()
        workload.cross_check(workload.iterate())


#: ``rls-experiment`` argument lists: every experiment but ``findings`` and
#: ``fig8`` (run below at a smaller scale).
EXPERIMENT_ARGS = (
    ["table1"],
    ["fig4", "--algo", "TD3", "--timesteps", "40"],
    ["fig4", "--algo", "DDPG", "--timesteps", "40"],
    ["fig5", "--timesteps", "40"],
    ["fig7", "--timesteps", "40"],
    ["fig11a", "--timesteps", "40"],
    ["fig11b", "--timesteps", "40"],
    ["batchsweep", "--leaf-batches", "1,4"],
    ["schedsweep", "--workers", "4", "--leaf-batches", "1,4", "--flush-policy", "timeout",
     "--timeout-us", "500"],
    ["replicasweep", "--replicas", "1,2", "--workers", "4"],
    ["servesweep", "--quick", "--out", "serve.txt"],
    ["zoosweep", "--quick", "--out", "zoo.txt"],
    ["cachesweep", "--quick", "--out", "cache.txt"],
    ["faultsweep", "--quick", "--out", "fault.txt"],
)


def _experiments(work: Path) -> None:
    from repro.experiments import cli, run_fig8
    from repro.minigo import MinigoConfig

    for argv in EXPERIMENT_ARGS:
        cli.main(argv)
    # ``rls-experiment fig8`` runs the 16-worker default round; the same
    # path at four workers, with the event scheduler over two replicas, and
    # once more streaming into a store (the store-derived Figure 8 summaries).
    small = MinigoConfig(num_workers=4, board_size=5, num_simulations=4, games_per_worker=1,
                         max_moves=6, sgd_steps=4, evaluation_games=2)
    run_fig8(replace(small, scheduler="event", batched_inference=True,
                     num_replicas=2)).report()
    run_fig8(replace(small, trace_dir=str(work / "fig8"))).report()


def _profiler_and_trace_store(work: Path) -> None:
    from repro.profiler.cli import main as rls_prof
    from repro.tracedb.cli import main as repro_trace

    store, compacted = str(work / "store"), str(work / "compacted")
    rls_prof(["--algo", "TD3", "--simulator", "HalfCheetah", "--steps", "100",
              "--trace-dir", str(work / "dumped")])
    rls_prof(["--algo", "TD3", "--simulator", "HalfCheetah", "--steps", "100",
              "--trace-dir", store, "--streaming"])
    repro_trace(["summarize", store])
    repro_trace(["summarize", store, "--overlap", "--mode", "thread"])
    repro_trace(["query", store, "--category", "GPU", "--limit", "5"])
    repro_trace(["query", store, "--count"])
    repro_trace(["compact", store, "--out", compacted, "--chunk-events", "5000"])


#: Example script -> the arguments its ``main`` runs with.
EXAMPLE_ARGS = {
    "quickstart.py": (),
    "framework_comparison.py": (48,),
    "algorithm_and_simulator_survey.py": (48,),
    "minigo_scaleup.py": (2,),
    "overhead_correction.py": (),
}


def _examples(work: Path) -> None:
    examples = REPO_ROOT / "examples"
    for name, args in EXAMPLE_ARGS.items():
        module = runpy.run_path(str(examples / name), run_name="example")
        module["main"](*args)


ENTRY_POINTS: Dict[str, Callable[[Path], None]] = {
    "perfbench": _perfbench,
    "rls-experiment": _experiments,
    "rls-prof + repro-trace": _profiler_and_trace_store,
    "examples": _examples,
}


# ------------------------------------------------------------------- probe
def called_code() -> Set[Tuple[str, int]]:
    """Run every entry point; the ``(filename, first line)`` of each code object entered."""
    entered: Set[object] = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp)
        os.chdir(work)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            for label, run in ENTRY_POINTS.items():
                print(f"reachability: running {label}", file=sys.stderr)
                with contextlib.redirect_stdout(io.StringIO()):
                    run(work)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}


def main() -> int:
    sys.path.insert(0, str(SRC))
    called = called_code()
    every = functions()

    def reached(function: Function) -> bool:
        filename = os.path.realpath(REPO_ROOT / function.path)
        return ((filename, function.first_line) in called
                or (filename, function.line) in called)

    unreached = {(f.path, f.line) for f in every if not reached(f)}
    outermost = [f for f in every
                 if (f.path, f.line) in unreached and f.parent not in unreached]
    top_level = [f for f in every if f.parent is None]
    print(json.dumps({
        "functions": len(every),
        "unreached": len(unreached),
        "function_lines": sum(f.lines for f in top_level),
        "unreached_lines": sum(f.lines for f in outermost),
    }))
    for function in outermost:
        print(f"{function.path}:{function.line} {function.name} {function.lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
