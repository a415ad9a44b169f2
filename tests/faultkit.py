"""Fault injection for the supervisor and store tests, by monkeypatching.

The library has no fault seam.  A test faults a dispatch by handing
``run_shards`` a wrapped task function (:func:`faulty`), a campaign by
patching its cell worker (:func:`fault_cells`), and the store by
patching :meth:`ResultStore.append` (:func:`tear_append`,
:func:`corrupt_append`).  Each patch lasts for its ``with`` block.

A wrapped task acts only inside a pool worker: there it kills the worker
or sleeps before the real task runs.  :data:`KILL` and a sleeping
``Fault(sleep=s)`` strike the first time their task starts (an
``O_EXCL`` marker file records that); :data:`KILL_EVERY_ATTEMPT`
strikes every attempt, which exhausts any retry budget.  The pool forks
after the patch is in place, and the faults ride in the pickled task
function.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass

import pytest

import repro.scenarios.schedule as schedule
from repro.scenarios.store import CHECKSUM_KEY, ResultStore, checksummed_line

#: Exit status of a killed worker, distinctive in the pool's exit codes.
KILL_EXIT_CODE = 37

#: The campaign's cell worker, taken before any test patches it.
_real_cell_worker = schedule._cell_worker


@dataclass(frozen=True)
class Fault:
    """What a task suffers in its worker: death, or ``sleep`` seconds."""

    sleep: float | None = None
    every_attempt: bool = False


KILL = Fault()
KILL_EVERY_ATTEMPT = Fault(every_attempt=True)


class TornAppend(Exception):
    """The run "died" halfway through writing a store record."""


def _first_time(marker_dir: str, index: int) -> bool:
    try:
        os.close(os.open(os.path.join(marker_dir, f"struck-{index}"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _faulty_call(fn, faults: dict, marker_dir: str, *args):
    target = getattr(args[0], "key", args[0])
    if target in faults and multiprocessing.parent_process() is not None:
        index = list(faults).index(target)
        fault = faults[target]
        if fault.every_attempt or _first_time(marker_dir, index):
            if fault.sleep is None:
                os._exit(KILL_EXIT_CODE)
            time.sleep(fault.sleep)
    return fn(*args)


def faulty(fn, tmp_path, faults: dict):
    """``fn`` with ``faults[t]`` striking each task whose first argument
    (or its ``key``, for a campaign cell) is ``t``."""
    marker_dir = tempfile.mkdtemp(prefix="faults-", dir=tmp_path)
    return functools.partial(_faulty_call, fn, dict(faults), marker_dir)


def _cell_task(*args):
    """The real cell worker under a name that pickles while it is patched."""
    return _real_cell_worker(*args)


@contextlib.contextmanager
def fault_cells(tmp_path, cells, faults: dict):
    """Campaign dispatch in which pending cell ``k`` of ``cells`` suffers
    ``faults[k]``; with one dispatch per campaign, cell ``k`` is task
    ``k`` and its telemetry events carry ``shard=k``."""
    by_key = {cells[k].key: fault for k, fault in faults.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedule, "_cell_worker",
                   faulty(_cell_task, tmp_path, by_key))
        yield


@contextlib.contextmanager
def _damaged_append(nth: int, torn: bool):
    real_append = ResultStore.append
    appends = itertools.count(1)

    def append(self, record):
        if next(appends) != nth:
            return real_append(self, record)
        line = checksummed_line(record) + "\n"
        if torn:
            with open(self.results_path, "a", encoding="utf-8") as fh:
                fh.write(line[: len(line) // 2])
                fh.flush()
                os.fsync(fh.fileno())
            raise TornAppend(f"tore append #{nth} to {self.results_path}")
        real_append(self, record)
        # Change one hex digit of the checksum just written: the line
        # stays valid JSON of the same length, and only its CRC fails.
        at = os.path.getsize(self.results_path) - len(line)
        at += len(f'{{"{CHECKSUM_KEY}":"')
        with open(self.results_path, "r+b") as fh:
            fh.seek(at)
            digit = fh.read(1)
            fh.seek(at)
            fh.write(b"1" if digit == b"0" else b"0")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ResultStore, "append", append)
        yield


def tear_append(nth: int):
    """The ``nth`` store append writes half its line and raises
    :class:`TornAppend`, as a run killed mid-write would stop."""
    return _damaged_append(nth, torn=True)


def corrupt_append(nth: int):
    """The ``nth`` store append lands with a wrong checksum digit."""
    return _damaged_append(nth, torn=False)
