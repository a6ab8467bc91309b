"""Table 1 — automatic partitioning tools and multi-threading
(paper §3).

The paper's Table 1 classifies partitioning techniques; its key
columns are "Multiple threads" and "Language coverage".  This bench
reproduces the *behavioral* content of those columns: each analysis
technique partitions a suite of litmus programs, and an adversarial
interleaving search decides whether the resulting partition is
correct.  Secure typing (Privagic) is evaluated by whether it accepts
(and then correctly partitions) or rejects the program at compile
time.
"""

from repro.baselines import (
    AbstractInterpTaint,
    AndersenTaint,
    UseDefTaint,
)
from repro.bench import Report
from repro.core import analyze_module
from repro.core.colors import HARDENED
from repro.errors import SecureTypeError
from repro.frontend import compile_source
from repro.ir.interp import Machine
from repro.sgx import Attacker

SECRET = 990017

#: Litmus 1: sequential flow through a pointer (no threads).
SEQ_POINTER = """
    long a;
    long* p;
    void f(long s) {
        p = &a;
        *p = s;
    }
"""

#: Litmus 2: Figure 3 — hidden pointer modification by another thread.
HIDDEN_MUTATION = """
    long a;
    long b;
    long* x;
    void f(long s) {
        x = &a;
        *x = s;
    }
    void g(long unused) {
        x = &b;
    }
"""

#: Litmus 3: no pointers at all (the only case use-def chains handle).
NO_POINTERS = """
    long a;
    void f(long s) {
        a = s;
    }
"""

LITMUS = {
    "seq-pointer": (SEQ_POINTER, ["f"], None),
    "hidden-mutation": (HIDDEN_MUTATION, ["f"], "g"),
    "no-pointers": (NO_POINTERS, ["f"], None),
}

TOOLS = {
    "use-def chains (Privtrans)": UseDefTaint,
    "abstract interp. (Glamdring)": AbstractInterpTaint,
    "points-to (Montsalvat-style)": AndersenTaint,
}


def _leaks(source: str, protected, mutator) -> bool:
    """Adversarial check: does some schedule leak the secret into
    unsafe memory under the given placement?"""
    for prefix in range(1, 40):
        module = compile_source(source)
        for name in protected:
            gv = module.get_global(name)
            gv.value_type = gv.value_type.with_color("dfenclave")
        machine = Machine(module)
        ctx_f = machine.spawn("f", [SECRET], mode="dfenclave")
        ctx_g = (machine.spawn(mutator, [0], mode=None)
                 if mutator else None)
        for _ in range(prefix):
            if ctx_f.finished:
                break
            ctx_f.step()
        if ctx_g is not None:
            while not ctx_g.finished:
                ctx_g.step()
        while not ctx_f.finished:
            ctx_f.step()
        if Attacker(machine).scan_for(SECRET):
            return True
        if ctx_g is None:
            break  # sequential: one schedule suffices
    return False


def regenerate_table1() -> Report:
    report = Report("table1_capabilities",
                    "Table 1: partitioning techniques vs litmus suite "
                    "(leak = partition defeated at runtime)")
    rows = []
    verdicts = {}
    for litmus_name, (source, entries, mutator) in LITMUS.items():
        for tool_name, tool_cls in TOOLS.items():
            module = compile_source(source)
            analysis = tool_cls(module,
                                sensitive_params=[("f", "s")])
            protected = analysis.partition.protected_globals
            leaked = _leaks(source, protected, mutator)
            verdict = "LEAK" if leaked else "protected"
            verdicts[(litmus_name, tool_name)] = verdict
            rows.append((litmus_name, tool_name,
                         ",".join(sorted(protected)) or "-", verdict))
        # Privagic: explicit secure typing on the same program.
        verdict = _privagic_verdict(litmus_name)
        verdicts[(litmus_name, "secure typing (Privagic)")] = verdict
        rows.append((litmus_name, "secure typing (Privagic)",
                     "typed", verdict))
    report.table(("litmus", "technique", "protects", "verdict"), rows)
    report.add()
    report.add("Paper's Table 1 claim: no data-flow tool handles "
               "multi-threaded C in the general case; secure typing "
               "does (by rejecting the unsound program).")
    # The headline cell: flow-sensitive analysis is defeated by the
    # hidden mutation; Privagic is not.
    assert verdicts[("hidden-mutation",
                     "abstract interp. (Glamdring)")] == "LEAK"
    assert verdicts[("hidden-mutation",
                     "secure typing (Privagic)")] == "rejected (safe)"
    assert verdicts[("seq-pointer",
                     "abstract interp. (Glamdring)")] == "protected"
    assert verdicts[("seq-pointer",
                     "use-def chains (Privtrans)")] == "LEAK"
    return report


def _privagic_verdict(litmus_name: str) -> str:
    colored = {
        "seq-pointer": """
            long color(blue) a;
            long color(blue)* p;
            entry void f(long color(blue) s) { p = &a; *p = s; }
        """,
        "hidden-mutation": """
            long color(blue) a;
            long b;
            long color(blue)* x;
            void f(long color(blue) s) { x = &a; *x = s; }
            void g(long unused) { x = &b; }
            entry void run(long color(blue) s) { f(s); g(0); }
        """,
        "no-pointers": """
            long color(blue) a;
            entry void f(long color(blue) s) { a = s; }
        """,
    }[litmus_name]
    try:
        analyze_module(compile_source(colored), HARDENED)
        return "accepted (typed)"
    except SecureTypeError:
        return "rejected (safe)"


def bench_table1(benchmark):
    report = benchmark(regenerate_table1)
    report.write()
