"""The MPC simulator: distributed tables, memory enforcement, accounting.

The simulator executes *logically global* numpy operations while tracking,
per machine, how many words it stores and how many it sends/receives each
round.  It raises :class:`MPCViolation` the moment any machine would exceed
its local memory — so an algorithm that completes under the simulator is a
certificate that the claimed memory regime suffices (up to the configured
constants), which is precisely the content of the paper's Section 6.

A :class:`DistributedTable` is a set of fixed-width records (named int/float
columns) plus an assignment of records to machines.  All primitives in
:mod:`repro.mpc.primitives` operate on these tables and charge rounds
through :class:`MPCSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MPCConfig

__all__ = ["MPCViolation", "RoundLog", "MPCSimulator", "DistributedTable"]


class MPCViolation(RuntimeError):
    """A machine exceeded its local memory or per-round communication."""


@dataclass
class RoundLog:
    """One accounting entry per charged primitive invocation."""

    name: str
    rounds: int
    records_moved: int
    max_machine_load: int


class MPCSimulator:
    """Round and memory accountant for one MPC execution.

    Parameters
    ----------
    config:
        The machine model (memory per machine, machine count, cost model).

    Notes
    -----
    The simulator is deliberately strict: *every* repartition checks the
    post-state of each machine against ``config.machine_memory`` and the
    volume each machine receives in the round against the same cap (the MPC
    model bounds per-round communication by local memory).
    """

    def __init__(self, config: MPCConfig) -> None:
        self.config = config
        self.rounds = 0
        self.total_messages = 0
        self.log: list[RoundLog] = []
        self.peak_machine_load = 0

    # -- accounting ---------------------------------------------------------
    def charge(self, primitive: str, *, records_moved: int = 0, max_machine_load: int = 0) -> None:
        """Charge the round cost of ``primitive`` and record statistics."""
        r = self.config.rounds_for(primitive)
        self.rounds += r
        self.total_messages += records_moved
        self.peak_machine_load = max(self.peak_machine_load, max_machine_load)
        self.log.append(RoundLog(primitive, r, records_moved, max_machine_load))

    def check_load(self, counts: np.ndarray, *, context: str) -> None:
        """Verify no machine holds more than its local memory."""
        if counts.size and counts.max() > self.config.machine_memory:
            raise MPCViolation(
                f"{context}: machine load {int(counts.max())} exceeds local "
                f"memory {self.config.machine_memory} "
                f"(gamma={self.config.gamma}, n={self.config.n})"
            )

    def summary(self) -> dict:
        """Aggregate statistics for reports and benches."""
        return {
            "rounds": self.rounds,
            "primitive_calls": len(self.log),
            "total_messages": self.total_messages,
            "peak_machine_load": self.peak_machine_load,
            "num_machines": self.config.num_machines,
            "machine_memory": self.config.machine_memory,
            "gamma": self.config.gamma,
        }


class DistributedTable:
    """Fixed-schema records partitioned over machines.

    Columns are parallel numpy arrays; ``machine_of`` maps each record to
    its current machine.  Construction and every repartition validate the
    per-machine load against the simulator's config.
    """

    def __init__(
        self,
        sim: MPCSimulator,
        columns: dict[str, np.ndarray],
        machine_of: np.ndarray | None = None,
        *,
        words_per_record: int | None = None,
    ) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        sizes = {c: np.asarray(a).size for c, a in columns.items()}
        if len(set(sizes.values())) != 1:
            raise ValueError(f"column length mismatch: {sizes}")
        self.sim = sim
        self.columns = {c: np.asarray(a) for c, a in columns.items()}
        self.num_records = next(iter(sizes.values()))
        self.words_per_record = words_per_record or len(columns)
        if machine_of is None:
            machine_of = self._even_assignment(self.num_records)
        self.machine_of = np.asarray(machine_of, dtype=np.int64)
        self._validate_load("table construction")

    # -- helpers -------------------------------------------------------------
    def _even_assignment(self, count: int) -> np.ndarray:
        cap = self.capacity_records
        return (np.arange(count, dtype=np.int64) // max(cap, 1)) % max(
            self.sim.config.num_machines, 1
        )

    @property
    def capacity_records(self) -> int:
        """Records one machine can hold given the record width."""
        return max(1, self.sim.config.machine_memory // self.words_per_record)

    def machine_loads(self) -> np.ndarray:
        counts = np.bincount(self.machine_of, minlength=self.sim.config.num_machines)
        return counts.astype(np.int64, copy=False) * self.words_per_record

    def _validate_load(self, context: str) -> None:
        self.sim.check_load(self.machine_loads(), context=context)

    def __len__(self) -> int:
        return self.num_records

    def __getitem__(self, col: str) -> np.ndarray:
        return self.columns[col]

    # -- structural operations ------------------------------------------------
    def select(self, mask: np.ndarray, *, context: str = "select") -> "DistributedTable":
        """Local filtering (no communication, no round charge)."""
        mask = np.asarray(mask, dtype=bool)
        return DistributedTable(
            self.sim,
            {c: a[mask] for c, a in self.columns.items()},
            self.machine_of[mask],
            words_per_record=self.words_per_record,
        )

    def with_columns(self, **new_cols: np.ndarray) -> "DistributedTable":
        """Add/replace columns computed locally (free).

        The table's ``words_per_record`` is a *provisioned budget* fixed at
        creation; annotations must fit it (as a real deployment would size
        its tuples up front).  Exceeding the budget is a programming error.
        """
        cols = dict(self.columns)
        for name, arr in new_cols.items():
            arr = np.asarray(arr)
            if arr.size != self.num_records:
                raise ValueError(f"column {name!r} length mismatch")
            cols[name] = arr
        if len(cols) > self.words_per_record:
            raise ValueError(
                f"record budget exhausted: {len(cols)} columns > "
                f"{self.words_per_record} provisioned words; create the "
                "table with a larger words_per_record"
            )
        return DistributedTable(
            self.sim,
            cols,
            self.machine_of,
            words_per_record=self.words_per_record,
        )

    def repartition_by_order(self, order: np.ndarray, *, context: str) -> "DistributedTable":
        """Reorder records globally and lay them out contiguously across
        machines — the data-movement step of a distributed sort.  Charges
        nothing itself (callers charge the primitive); validates that the
        shuffle volume per machine stays within local memory."""
        cols = {c: a[order] for c, a in self.columns.items()}
        out = DistributedTable(
            self.sim,
            cols,
            None,
            words_per_record=self.words_per_record,
        )
        # Communication volume: a record whose machine changes is "sent".
        moved = int((self.machine_of[order] != out.machine_of).sum())
        self.sim.check_load(out.machine_loads(), context=f"{context}: receive volume")
        out._last_moved = moved  # type: ignore[attr-defined]
        return out
