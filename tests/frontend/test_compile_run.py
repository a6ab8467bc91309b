"""End-to-end frontend tests: compile MiniC, run on the interpreter."""

import pytest

from repro.errors import FrontendError
from repro.frontend import compile_source
from repro.ir.interp import Machine
from repro.ir.passes import mem2reg


def run(source: str, fn: str = "main", args=()):
    module = compile_source(source)
    machine = Machine(module)
    return machine.run_function(fn, list(args)), machine


def test_arithmetic_and_control_flow():
    result, _ = run("""
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
    """)
    assert result == 55


def test_loops_and_arrays():
    result, _ = run("""
        int main() {
            int a[10];
            for (int i = 0; i < 10; i++) a[i] = i * i;
            int total = 0;
            int i = 0;
            while (i < 10) { total += a[i]; i++; }
            return total;
        }
    """)
    assert result == sum(i * i for i in range(10))


def test_structs_and_pointers():
    result, _ = run("""
        struct point { int x; int y; };
        int main() {
            struct point p;
            p.x = 3;
            p.y = 4;
            struct point* q = &p;
            q->x = 30;
            return p.x + p.y;
        }
    """)
    assert result == 34


def test_malloc_struct_and_strings():
    result, machine = run("""
        struct account {
            char name[16];
            double balance;
        };
        struct account* create(char* name) {
            struct account* res = malloc(sizeof(struct account));
            strncpy(res->name, name, 16);
            res->balance = 0.0;
            return res;
        }
        int main() {
            struct account* a = create("alice");
            printf("name=%s\\n", a->name);
            return strlen(a->name);
        }
    """)
    assert result == 5
    assert machine.stdout == "name=alice\n"


def test_short_circuit_evaluation():
    result, machine = run("""
        int called = 0;
        int bump() { called = called + 1; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            printf("%d", called);
            return a + b;
        }
    """)
    assert result == 1
    assert machine.stdout == "0"


def test_color_qualifier_lands_on_ir_types():
    module = compile_source("""
        struct account {
            char color(blue) name[16];
            double color(red) balance;
        };
        int color(blue) counter = 0;
        int main() { return 0; }
    """)
    account = module.structs["account"]
    assert account.fields[0].type.color == "blue"
    assert account.fields[1].type.color == "red"
    assert account.is_multicolor
    assert module.globals["counter"].color == "blue"


def test_function_annotations():
    module = compile_source("""
        extern int send(int x);
        within int helper(int x);
        ignore void declassify(char* dst, char* src);
        entry int main() { return 0; }
    """)
    assert module.get_function("send").is_extern
    assert module.get_function("helper").is_within
    assert module.get_function("declassify").is_ignore
    assert module.get_function("main").is_entry
    assert module.entry_points() == [module.get_function("main")]


def test_threads_via_builtin():
    result, _ = run("""
        int shared = 0;
        void worker(long arg) {
            mutex_lock(1);
            shared = shared + arg;
            mutex_unlock(1);
        }
        int main() {
            long t1 = thread_create((void*) worker, 5);
            long t2 = thread_create((void*) worker, 7);
            thread_join(t1);
            thread_join(t2);
            return shared;
        }
    """)
    assert result == 12


def test_unsynchronized_threads_can_lose_updates():
    """The interpreter interleaves contexts instruction by instruction,
    so the classic lost-update race is observable — the property the
    Figure 3 experiment relies on."""
    result, _ = run("""
        int shared = 0;
        void worker(long arg) {
            shared = shared + arg;
        }
        int main() {
            long t1 = thread_create((void*) worker, 5);
            long t2 = thread_create((void*) worker, 7);
            thread_join(t1);
            thread_join(t2);
            return shared;
        }
    """)
    assert result in (5, 7, 12)


def test_function_pointer_indirect_call():
    result, _ = run("""
        int twice(int x) { return 2 * x; }
        int thrice(int x) { return 3 * x; }
        int main() {
            int (*fp)(int);
            fp = twice;
            int a = fp(10);
            fp = thrice;
            return a + fp(10);
        }
    """)
    assert result == 50


def test_mem2reg_on_compiled_code():
    module = compile_source("""
        int sum(int n) {
            int total = 0;
            for (int i = 0; i <= n; i++) total += i;
            return total;
        }
    """)
    promoted = mem2reg(module)
    assert promoted >= 3  # n.addr, total, i
    machine = Machine(module)
    assert machine.run_function("sum", [100]) == 5050


def test_parse_error_reports_position():
    with pytest.raises(FrontendError):
        compile_source("int main( { return 0; }")


def test_global_char_pointer_string_initializer_is_rejected():
    # A pointer global has one slot; the string's characters would be
    # written past it at load.
    source = """
        char *banner = "hello";
        int main() { return 0; }
    """
    with pytest.raises(FrontendError,
                       match=r"^2:\d+: a string literal can only "
                             r"initialize a global char array"):
        compile_source(source)


def test_do_while_and_ternary():
    result, _ = run("""
        int main() {
            int i = 0;
            int total = 0;
            do { total += i; i++; } while (i < 5);
            return total > 5 ? total : 0;
        }
    """)
    assert result == 10


def test_compound_assignment_evaluates_its_target_once():
    # C: `a[i++] += 5` reads and writes a[0] and bumps i once.
    result, _ = run("""
        int main() {
            int a[3];
            a[0] = 0; a[1] = 0; a[2] = 0;
            int i = 0;
            a[i++] += 5;
            return i * 100 + a[0] * 10 + a[1];
        }
    """)
    assert result == 150


def test_compound_assignment_through_a_pointer_and_a_member():
    result, _ = run("""
        struct cell { long v; };
        long bump(long *p) { *p += 3; return *p; }
        int main() {
            struct cell c;
            c.v = 4;
            c.v *= 5;
            long n = 1;
            return c.v + bump(&n);
        }
    """)
    assert result == 24


def test_integer_literal_beyond_int_range_is_long():
    result, _ = run("""
        long main() {
            long x = 2147483648 + 0;
            return x;
        }
    """)
    assert result == 2147483648
    result, _ = run("long main() { return 2147483648 * 2; }")
    assert result == 4294967296
    result, _ = run("int main() { return 2147483647 + 0; }")
    assert result == 2147483647
