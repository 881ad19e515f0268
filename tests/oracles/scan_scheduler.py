"""The linear-scan ``PoolScheduler`` loop, kept as a test oracle.

``PoolScheduler.run`` takes the runnable driver with the smallest clock off
a lazy min-heap, O(log workers) per event.  The loop it replaced rebuilt the
runnable list and took ``min()`` on every event, O(workers) per event.  That
loop is kept here unchanged as :func:`run_scan`: call ``run_scan(scheduler)``
on a built scheduler, or swap it in for a whole pool run with
``PoolScheduler.run = run_scan``.  It must give the heap loop's schedules,
decision counters and records exactly, and leaves the heap counters at zero
(``tests/test_scheduler.py``, ``tests/test_rollout.py``); the wall-clock
benchmark times it as the pre-optimization baseline.
"""

from __future__ import annotations

from repro.rollout.scheduler import PoolScheduler, SchedulerStats


def run_scan(self: PoolScheduler) -> SchedulerStats:
    """Original linear-scan loop: rebuilds the runnable list per event.

    O(workers) per event; preserved as the pinned pre-optimization
    baseline for the wall-clock benchmark and as the oracle the heap
    loop's schedules are asserted against.
    """
    while True:
        runnable = [driver for driver in self.drivers if driver.runnable]
        if not runnable:
            if self.service.pending_tickets:
                self._serve()
                continue
            if all(driver.finished for driver in self.drivers):
                return self.stats
            raise RuntimeError("scheduler deadlock: unfinished workers but "
                               "nothing runnable and nothing pending")
        nxt = min(runnable, key=lambda driver: driver.now_us)
        if self._try_eager_serve(nxt.now_us):
            continue
        deadline = self.service.pending_deadline_us(self.flush_timeout_us)
        if deadline is not None and nxt.now_us >= deadline:
            self.stats.timeout_serves += 1
            self._serve(arrival_cutoff_us=deadline)
            continue
        self._step(nxt)
