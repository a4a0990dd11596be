"""The benchmark's workloads: what each one runs, how much work one CLI
invocation is, and which program counts that work must produce.

Every workload drives the ``corrclass`` command line.  A sweep workload runs
``corrclass sweep`` over one grid; the opinions workload runs one
``corrclass opinions`` trial per invocation.  An op is one sweep cell (one
realization at one grid value) or one opinions trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FAMILY_SIZE = 8  # sequences in a reference family: the samples of every cell


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # sweep geometry: swept variable, grid, held values, realizations
    var: str | None = None
    grid: tuple[int, ...] = ()
    fixed: dict[str, int] = field(default_factory=dict)
    realizations: int = 0
    # opinions geometry: individuals, products, hidden components
    opinions: tuple[int, int, int] | None = None
    # run the CLI at --jobs nproc; its workers then get one BLAS thread each
    parallel: bool = False

    @property
    def is_sweep(self) -> bool:
        return self.var is not None

    @property
    def ops(self) -> int:
        """Ops per invocation."""
        return len(self.grid) * self.realizations if self.is_sweep else 1

    def cells(self):
        """(W, M, L) of every grid point, in grid order."""
        for value in self.grid:
            params = dict(self.fixed, **{self.var: value})
            yield params["W"], params["M"], params["L"]

    def argv(self, seed: int, out: str, jobs: int) -> list[str]:
        """CLI arguments of one invocation (after ``python -m corrclass``)."""
        if not self.is_sweep:
            m, n, l = self.opinions
            return ["opinions", "--m", str(m), "--n", str(n), "--l", str(l), "--seed", str(seed)]
        fixed = ",".join(f"{key}={value}" for key, value in self.fixed.items())
        return [
            "sweep", "--var", self.var, "--grid", ",".join(map(str, self.grid)),
            "--fixed", fixed, "--realizations", str(self.realizations),
            "--seed", str(seed), "--out", out, "--jobs", str(jobs),
        ]

    def expected_counts(self) -> dict[str, int]:
        """Work one invocation must do, from its geometry alone.

        The traced run measures the same counts from the arguments the
        program passes between its layers and requires equality.
        """
        if not self.is_sweep:
            m, n, _ = self.opinions
            return {"cli.ops": 1, "opinions.row_correlation.flops": 2 * m * m * n}
        match_ops = windows = flops = 0
        for w, m, l in self.cells():
            match_ops += FAMILY_SIZE * m * (w - l + 1) * l
            windows += FAMILY_SIZE * (w - l + 1)
            flops += 2 * FAMILY_SIZE * FAMILY_SIZE * m
        r = self.realizations
        return {
            "cli.ops": self.ops,
            "sweep.cells": self.ops,
            "sequences.match_matrix.ops": r * match_ops,
            "analysis.overlap_matrix.windows": r * windows,
            "opinions.row_correlation.flops": r * flops,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="probe-scan",
            why="figure-3 geometry (W=200, M=1000, L=5..50) at jobs=1: the match kernel and "
            "the 1000-probe codec dominate, the k-mer overlap is ~4%",
            var="L",
            grid=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
            fixed={"W": 200, "M": 1000},
            realizations=1,
        ),
        Workload(
            name="long-records",
            why="long samples (W=500..2000) and 20 short probes at jobs=1: the k-mer overlap "
            "is ~70% and the match kernel ~25%; the largest reference_family calls",
            var="W",
            grid=(500, 1000, 1500, 2000),
            fixed={"M": 20, "L": 10},
            realizations=5,
        ),
        Workload(
            name="many-cells",
            why="1000 tiny cells (W=40, L=8, M=4..32) at jobs=nproc: per-cell orchestration, "
            "pickling and the process pool weigh most, not the kernel",
            var="M",
            grid=(4, 8, 16, 32),
            fixed={"W": 40, "L": 8},
            realizations=250,
            parallel=True,
        ),
        Workload(
            name="opinions",
            why="linear model on a 2000x2000 table, one trial per seed: BLAS-bound "
            "row_correlation and predict_matrix, no sequence code",
            opinions=(2000, 2000, 8),
        ),
    )
}
