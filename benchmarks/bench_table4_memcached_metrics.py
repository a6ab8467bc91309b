"""Table 4 — memcached metrics (paper §9.2.1 / §9.2.2).

Reproduces the three columns for our minicache stand-in:

* **Modified (C locs)** — diff between the pristine and annotated
  MiniC sources (paper: Scone 0, Privagic 9);
* **TCB** — what is loaded in the enclave: with Scone the whole
  application + musl + libOS (51 271 KiB), with Privagic the Privagic
  runtime + Intel SDK runtime plus only the partitioned user code;
* **User code (LLVM)** — IR lines of the user code inside the
  enclave versus the whole application (paper: 1 238 vs 78 106).
"""

from repro.apps.minicache.minic_source import (
    FULL_ANNOTATED,
    FULL_PRISTINE,
    modified_lines,
)
from repro.baselines.scone import SCONE_TCB_KIB
from repro.bench import Report
from repro.core.compiler import compile_and_partition
from repro.frontend import compile_source
from repro.ir.printer import print_module
from repro.sgx.enclave import Enclave

#: Fixed runtime sizes inside the enclave with Privagic (Intel SDK
#: runtime + Privagic runtime; paper: 268 KiB total).
PRIVAGIC_RUNTIME_KIB = 268


def _ir_lines(module) -> int:
    return sum(1 for line in print_module(module).splitlines()
               if line.strip() and not line.lstrip().startswith(";"))


def regenerate_table4() -> Report:
    report = Report("table4_memcached_metrics",
                    "Table 4: minicache metrics (memcached stand-in)")
    count, lines = modified_lines()

    # Whole application, as a Scone-style full embed would load it.
    whole = compile_source(FULL_PRISTINE)
    whole_lines = _ir_lines(whole)

    # Privagic partition: only the store-enclave module is trusted.
    program = compile_and_partition(FULL_ANNOTATED, mode="hardened")
    enclave = Enclave("store", program.modules["store"])
    enclave_lines = enclave.code_lines()
    untrusted_lines = _ir_lines(program.modules[program.untrusted])

    report.table(
        ("", "Modified (locs)", "TCB (KiB)", "User code (IR lines)"),
        [
            ("Scone (model)", 0, SCONE_TCB_KIB,
             f"{whole_lines} (+ libraries)"),
            ("Privagic", count, PRIVAGIC_RUNTIME_KIB,
             str(enclave_lines)),
        ])
    report.add()
    report.add(f"Paper: Scone 51,271 KiB / 78,106 LLVM lines; "
               f"Privagic 9 modified lines, 268 KiB, 1,238 LLVM lines.")
    report.add(f"Enclave user code is {whole_lines / enclave_lines:.1f}x "
               f"smaller than the whole application "
               f"(untrusted partition: {untrusted_lines} lines).")
    report.add(f"Annotation effort: {count} modified lines "
               f"(2 colors on the central map's fields + "
               f"{count - 2} classify/declassify boundary lines).")
    report.add()
    report.add("Modified lines:")
    for line in lines:
        report.add(f"    {line}")

    assert count <= 20, "annotation effort must stay modest (§9.2.1)"
    assert enclave_lines < whole_lines / 2, \
        "the enclave must hold a fraction of the application (§9.2.2)"
    # Attestation sanity: the enclave has a stable measurement.
    assert len(enclave.measurement) == 64
    return report


def bench_table4(benchmark):
    report = benchmark(regenerate_table4)
    report.write()
