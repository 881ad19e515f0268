"""Preserved pre-optimization implementations, kept as test oracles.

These are not product code: tests and the wall-clock benchmark run them
side by side with the shipped implementations and assert identical outputs.
Code that used to sit in ``src/`` behind a run-time switch is swapped in by
assigning the oracle over the shipped name for one run, then restoring it;
the rest is called side by side with the shipped code.

* ``go_reference`` — the flood-fill Go engine (:mod:`repro.sim.go`);
* ``scalar_mcts`` — the one-object-per-child MCTS (:mod:`repro.minigo.mcts`);
* ``scan_scheduler`` — the linear-scan loop, swapped in as
  ``PoolScheduler.run`` (:mod:`repro.rollout.scheduler`);
* ``overlap_loop`` — the per-boundary Python sweep, swapped in as
  ``overlap._accumulate_worker`` through ``accumulate_columns_loop``
  (:mod:`repro.profiler.overlap`), and the whole object-based
  ``compute_overlap_loop``;
* ``correction_loop`` — the heap-sweep ``OperationLocator`` and the
  per-marker / per-event loops of the overhead correction, the total
  overhead and the transition counts (:mod:`repro.profiler.correction`);
* ``adam_loop`` — the per-parameter ``Adam`` / ``MPIAdam`` update
  (:mod:`repro.backend.optimizers`);
* ``scalar_cuda_launch`` — the per-call CUDA launch path and object profiler;
* ``batch_planner`` — the planning half of ``InferenceService.serve_queued``
  before :mod:`repro.rollout.planner` (``_plan_batches`` and the two hold
  rules), called side by side with ``planner.plan``;
* ``jsonl_chunk`` — the ``tracedb-v1`` JSONL chunk writer;
* ``json_frame`` — the version-1 JSON serving wire codec.
"""
