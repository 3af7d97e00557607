"""Benchmark workload specifications (Table IV equivalents).

The paper runs full Solaris VMs with Apache, SPECjbb and SPLASH-2 /
SPEC benchmarks under Virtual-GEMS.  We replace them with parameterized
synthetic generators that reproduce the traits the paper's analysis
depends on (Sec. V-C):

* **working-set size** relative to the L1/L2 capacities — Tomcatv, Lu,
  Radix and Volrend are *L1-power-dominated* (working set fits the L1);
  Apache and JBB are *L2-power-dominated*, with JBB's working set so
  large that its L2 miss rate exceeds 40%;
* **memory saved by deduplication** — the "Memory saved" column of
  Table IV, reproduced by each spec's dedup page count;
* **sharing structure** — private per-thread data, VM-shared data and
  cross-VM deduplicated (read-only) data, with an access mix per class.

Page counts are sized for the *scaled* evaluation chip
(:func:`repro.sim.config.small_test_chip` relatives; see
``paper_scaled_chip``), keeping the working-set/cache ratios of the
paper's full-size platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = ["WorkloadSpec", "BENCHMARKS", "MIXES", "workload_for_vm", "spec_names"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic model of one benchmark's memory behaviour."""

    name: str
    #: pages of private (stack/heap) data per thread
    private_pages: int
    #: pages shared read-write among the threads of one VM
    vm_shared_pages: int
    #: logical pages with identical content across the VMs of the same
    #: benchmark — the hypervisor deduplicates them (read-only)
    dedup_pages: int
    #: access mix over (private, vm-shared, dedup); must sum to 1
    frac_private: float
    frac_vm_shared: float
    frac_dedup: float
    #: write probability within each class (dedup writes trigger CoW)
    write_private: float
    write_vm_shared: float
    write_dedup: float
    #: Zipf skew of block popularity (higher = tighter working set)
    zipf_s: float
    #: probability of re-accessing a recently touched block (temporal
    #: locality; the reuse window approximates the hot working set)
    reuse_prob: float = 0.9
    #: distinct recent blocks the reuse draws come from
    reuse_window: int = 192
    #: leading pages of the dedup region that every thread sweeps
    #: cyclically (hot read-only content served over and over, e.g. a
    #: web server's popular documents); 0 disables the sweep
    dedup_scan_pages: int = 0
    #: fraction of dedup accesses that follow the cyclic sweep
    dedup_scan_frac: float = 0.0
    #: uniform think-time range between memory operations, in cycles
    think: Tuple[int, int] = (1, 4)
    #: performance metric: "transactions" (count ops in a fixed window)
    #: or "time" (cycles to finish a fixed number of ops)
    metric: str = "transactions"

    def __post_init__(self) -> None:
        total = self.frac_private + self.frac_vm_shared + self.frac_dedup
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: access fractions sum to {total}")
        for f in (self.write_private, self.write_vm_shared, self.write_dedup):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{self.name}: write fraction {f} out of range")
        for attr in ("reuse_prob", "dedup_scan_frac"):
            if not 0.0 <= getattr(self, attr) <= 1.0:
                raise ValueError(
                    f"{self.name}: {attr} must be in [0, 1], "
                    f"got {getattr(self, attr)}"
                )
        if self.reuse_window < 1:
            raise ValueError(
                f"{self.name}: reuse_window must be >= 1, got {self.reuse_window}"
            )
        for attr in (
            "private_pages", "vm_shared_pages", "dedup_pages", "dedup_scan_pages"
        ):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{self.name}: {attr} must be >= 0, got {getattr(self, attr)}"
                )
        if self.private_pages + self.vm_shared_pages + self.dedup_pages == 0:
            raise ValueError(
                f"{self.name}: workload has a zero-length address space "
                "(no private, vm-shared or dedup pages)"
            )
        lo, hi = self.think
        if lo < 0 or hi < lo:
            raise ValueError(f"{self.name}: invalid think range {self.think}")

    def logical_pages(self, threads_per_vm: int) -> int:
        """Pages in one VM's logical address space."""
        return (
            threads_per_vm * self.private_pages
            + self.vm_shared_pages
            + self.dedup_pages
        )

    def expected_dedup_saving(
        self, threads_per_vm: int, n_vms: int, os_pages: int = 0
    ) -> float:
        """Fraction of physical pages saved by dedup (Table IV column).

        ``os_pages`` are guest-OS pages shared across *all* VMs (see
        :class:`repro.workloads.generator.ConsolidatedWorkload`).
        """
        logical = n_vms * (self.logical_pages(threads_per_vm) + os_pages)
        saved = (self.dedup_pages + os_pages) * (n_vms - 1)
        return saved / logical if logical else 0.0


# ---------------------------------------------------------------------------
# Table IV benchmark models (page counts sized for the scaled chip:
# 2 pages of L1 per tile, 16 pages of L2 bank, 1024 pages of chip L2)

BENCHMARKS: Dict[str, WorkloadSpec] = {
    # Web server: large working set (L2-power-dominated), much VM-shared
    # state (document cache), 21.72% dedup savings
    "apache": WorkloadSpec(
        name="apache",
        reuse_prob=0.9,
        reuse_window=112,
        private_pages=4,
        vm_shared_pages=36,
        dedup_pages=28,
        frac_private=0.30,
        frac_vm_shared=0.42,
        frac_dedup=0.28,
        write_private=0.25,
        write_vm_shared=0.08,
        write_dedup=0.001,
        zipf_s=0.65,
        dedup_scan_pages=6,
        dedup_scan_frac=0.6,
        metric="transactions",
    ),
    # Java server: huge working set, L2 miss rate over 40%, 23.88% dedup
    "jbb": WorkloadSpec(
        name="jbb",
        reuse_prob=0.8,
        reuse_window=144,
        private_pages=8,
        vm_shared_pages=220,
        dedup_pages=160,
        frac_private=0.30,
        frac_vm_shared=0.48,
        frac_dedup=0.22,
        write_private=0.25,
        write_vm_shared=0.12,
        write_dedup=0.001,
        zipf_s=0.25,
        dedup_scan_pages=6,
        dedup_scan_frac=0.4,
        metric="transactions",
    ),
    # Integer sort: small per-thread working set (L1-dominated), 24.18%
    "radix": WorkloadSpec(
        name="radix",
        reuse_prob=0.96,
        reuse_window=96,
        private_pages=1,
        vm_shared_pages=4,
        dedup_pages=2,
        frac_private=0.62,
        frac_vm_shared=0.18,
        frac_dedup=0.20,
        write_private=0.30,
        write_vm_shared=0.12,
        write_dedup=0.0,
        zipf_s=1.1,
        metric="time",
    ),
    # Dense-matrix factorization: tiny hot set, 32.71% dedup
    "lu": WorkloadSpec(
        name="lu",
        reuse_prob=0.96,
        reuse_window=96,
        private_pages=1,
        vm_shared_pages=3,
        dedup_pages=5,
        frac_private=0.60,
        frac_vm_shared=0.15,
        frac_dedup=0.25,
        write_private=0.28,
        write_vm_shared=0.08,
        write_dedup=0.0,
        zipf_s=1.2,
        metric="time",
    ),
    # Ray-casting renderer: read-mostly shared scene data
    "volrend": WorkloadSpec(
        name="volrend",
        reuse_prob=0.96,
        reuse_window=96,
        private_pages=1,
        vm_shared_pages=3,
        dedup_pages=3,
        frac_private=0.55,
        frac_vm_shared=0.15,
        frac_dedup=0.30,
        write_private=0.25,
        write_vm_shared=0.05,
        write_dedup=0.0,
        zipf_s=1.1,
        metric="time",
    ),
    # Vectorized mesh generation: the highest dedup ratio, 36.82%
    "tomcatv": WorkloadSpec(
        name="tomcatv",
        reuse_prob=0.96,
        reuse_window=96,
        private_pages=1,
        vm_shared_pages=2,
        dedup_pages=7,
        frac_private=0.60,
        frac_vm_shared=0.10,
        frac_dedup=0.30,
        write_private=0.28,
        write_vm_shared=0.08,
        write_dedup=0.0,
        zipf_s=1.15,
        metric="time",
    ),
}

#: heterogeneous mixes of Table IV: VM index -> benchmark name
MIXES: Dict[str, Tuple[str, ...]] = {
    "mixed-com": ("apache", "apache", "jbb", "jbb"),
    "mixed-sci": ("radix", "lu", "volrend", "tomcatv"),
}


def spec_names() -> Tuple[str, ...]:
    return tuple(BENCHMARKS) + tuple(MIXES)


def workload_for_vm(workload: str, vm: int, n_vms: int = 4) -> WorkloadSpec:
    """Spec run by VM ``vm`` under the named workload (mix-aware)."""
    if workload in BENCHMARKS:
        return BENCHMARKS[workload]
    if workload in MIXES:
        names = MIXES[workload]
        return BENCHMARKS[names[vm % len(names)]]
    raise KeyError(f"unknown workload {workload!r}; options: {spec_names()}")
