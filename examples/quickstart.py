#!/usr/bin/env python
"""Quickstart: color a struct, compile with Privagic, run partitioned.

This is the paper's Figure 1 idea end to end: a bank-account struct
whose balance lives in an enclave, compiled by the Privagic pipeline
(mem2reg -> secure type analysis -> partitioning) and executed on the
simulated SGX machine with per-enclave worker threads.

Run:  python examples/quickstart.py
"""

from repro.core.colors import RELAXED
from repro.core.compiler import PrivagicCompiler
from repro.ir.printer import print_module
from repro.sgx import SGXAccessPolicy, Attacker

SOURCE = """
    /* The developer adds ONE color annotation: the balance is
       sensitive and must live in the 'vault' enclave. */
    long color(vault) balance = 0;
    long audit_log = 0;

    ignore long declassify(long v);

    void deposit(long amount) {
        balance = balance + amount;
        audit_log = audit_log + 1;        /* unsafe bookkeeping */
    }

    entry long run_day() {
        deposit(100);
        deposit(250);
        deposit(37);
        return declassify(balance);       /* explicit declassification */
    }
"""


def main() -> None:
    print("1. Compiling with Privagic (relaxed mode)...")
    compiler = PrivagicCompiler(mode=RELAXED)
    program = compiler.compile_source(SOURCE)

    print(f"   partitions: {program.colors}")
    for color in program.colors:
        module = program.modules[color]
        print(f"   - {color}: {module.instruction_count()} "
              f"instructions, functions "
              f"{sorted(n for n, f in module.functions.items() if not f.is_declaration)}")

    print("\n2. The vault enclave's code (what gets attested):")
    for line in print_module(program.modules["vault"]).splitlines():
        if line.strip():
            print(f"   {line}")

    print("\n3. Running on the simulated SGX machine...")
    from repro.runtime import PrivagicRuntime
    runtime = PrivagicRuntime(
        program, {"declassify": lambda m, c, a: a[0]})
    SGXAccessPolicy().attach(runtime.machine)
    result = runtime.run("run_day")
    print(f"   run_day() = {result}   (expected 387)")
    print(f"   runtime messages: {runtime.stats.as_dict()}")

    print("\n4. The attacker sweeps unsafe memory for the balance...")
    attacker = Attacker(runtime.machine)
    hits = attacker.scan_for(387)
    print(f"   found at {len(hits)} unsafe address(es) — only the "
          f"declassified copy is visible; the enclave copy is not.")
    try:
        attacker.corrupt_global("balance", 0)
    except Exception as error:
        print(f"   corrupting the enclave balance fails: {error}")

    assert result == 387


if __name__ == "__main__":
    main()
