"""Figure 8 — memcached (minicache) with YCSB (paper §9.2.3).

Machine B, YCSB 6 clients x 6 threads over loopback, 1024-byte
records, 8 000 000 operations, datasets from 1 MiB to 32 GiB.
Configurations: Unprotected, Scone (full embed), Privagic (central
map colored, hardened mode).

Expected shapes (paper):
* small datasets (< 200 MiB): Privagic 8.5-10x Scone's throughput and
  within 5-20% of Unprotected;
* 32 GiB: Privagic degrades (enclave LLC misses + EPC) but stays
  >= 2.3x Scone.
"""

from repro.apps.deployments import CacheExperiment
from repro.bench import Report
from repro.sgx.costmodel import MIB
from repro.workloads import WORKLOAD_A

DEPLOYMENTS = ("Unprotected", "Scone", "Privagic")
DATASETS_MIB = (1, 4, 16, 64, 200, 512, 1024, 4096, 8192, 16384, 32768)


def regenerate_figure8() -> Report:
    report = Report("fig8_memcached",
                    "Figure 8: memcached with YCSB (machine B, "
                    "workload A)")
    rows = []
    by_size = {}
    for size_mib in DATASETS_MIB:
        n_records = max(1, size_mib * MIB // 1024)
        experiment = CacheExperiment(n_records, WORKLOAD_A)
        results = {d: experiment.run(d) for d in DEPLOYMENTS}
        by_size[size_mib] = results
        for d in DEPLOYMENTS:
            r = results[d]
            rows.append((f"{size_mib} MiB", d, r.throughput_ops,
                         r.mean_latency_us))
    report.table(("dataset", "deployment", "ops/s", "latency_us"),
                 rows)
    report.add()
    small = by_size[64]
    report.band("small dataset: Privagic/Scone throughput",
                small["Privagic"].throughput_ops
                / small["Scone"].throughput_ops, (8.5, 10.0))
    report.band("small dataset: Unprotected/Privagic throughput",
                small["Unprotected"].throughput_ops
                / small["Privagic"].throughput_ops, (1.05, 1.20))
    large = by_size[32768]
    ratio = (large["Privagic"].throughput_ops
             / large["Scone"].throughput_ops)
    report.add(f"[{'OK ' if ratio >= 2.3 else 'OUT'}] 32 GiB: "
               f"Privagic/Scone = {ratio:.2f} (paper: >= 2.3)")
    # Monotone degradation of Privagic with dataset size (cache
    # effects, §9.2.3).
    privagic_curve = [by_size[s]["Privagic"].throughput_ops
                      for s in DATASETS_MIB]
    assert privagic_curve[0] >= privagic_curve[-1] * 2
    return report


def bench_fig8(benchmark):
    report = benchmark(regenerate_figure8)
    report.write()
    assert not any(line.startswith("[OUT") for line in report.lines)
