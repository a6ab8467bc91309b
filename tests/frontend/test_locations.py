"""Source-location threading: lexer -> AST -> codegen -> IR ->
diagnostics.  A secure-typing violation must name the MiniC source
line that caused it (the paper's Table 3 reports violations per
source construct)."""

import pytest

from repro.core.compiler import compile_and_partition
from repro.errors import SecureTypeError
from repro.frontend import compile_source
from repro.ir.instructions import BinOp, Call, Store

BROKEN = """\
long color(blue) secret = 1;
long out = 0;

entry void main() {
    out = secret;
}
"""


def test_secure_type_violation_reports_the_source_line():
    with pytest.raises(SecureTypeError) as excinfo:
        compile_and_partition(BROKEN)
    error = excinfo.value
    assert error.loc is not None
    line, column = error.loc
    assert line == 5                       # `out = secret;`
    assert "source line 5:" in str(error)


def test_locations_survive_partition_specialization():
    # The violating store sits inside a helper that gets specialized
    # per color; the clone must keep the original source location.
    source = """\
long color(blue) secret = 1;
long out = 0;

void leak(long v) {
    out = v;
}

entry void main() {
    leak(secret);
}
"""
    with pytest.raises(SecureTypeError) as excinfo:
        compile_and_partition(source)
    assert excinfo.value.loc is not None
    assert excinfo.value.loc[0] == 5       # `out = v;`


def test_instructions_carry_their_source_lines():
    module = compile_source("""\
int g = 0;

entry int main() {
    g = 7;
    printf("hi\\n");
    return g;
}
""")
    main = module.functions["main"]
    instrs = [i for block in main.blocks for i in block.instructions]
    stores = [i for i in instrs if isinstance(i, Store)]
    calls = [i for i in instrs if isinstance(i, Call)]
    assert any(i.loc and i.loc[0] == 4 for i in stores)
    assert any(i.loc and i.loc[0] == 5 for i in calls)
    # Every located instruction points inside the source text.
    for instr in instrs:
        if instr.loc is not None:
            assert 1 <= instr.loc[0] <= 7


def test_union_color_mixing_reports_the_declaration_line():
    source = """\
union broken {
    int color(blue) a;
    int color(red) b;
};

entry int main() { return 0; }
"""
    with pytest.raises(SecureTypeError) as excinfo:
        compile_source(source)
    assert excinfo.value.loc is not None
    assert excinfo.value.loc[0] == 1


def test_error_without_location_has_no_source_suffix():
    error = SecureTypeError("store", "leak")
    assert error.loc is None
    assert "source line" not in str(error)


def test_an_expression_carries_its_own_line_not_its_last_operands():
    # The add and the store belong to line 5 even though their last
    # operand, the call, sits on line 6.
    module = compile_source("""\
int g(int v) { return v; }

entry int main() {
    int a = 1;
    int x = a +
        g(a);
    return x;
}
""")
    main = module.functions["main"]
    instrs = [i for block in main.blocks for i in block.instructions]
    call = next(i for i in instrs if isinstance(i, Call))
    add = next(i for i in instrs
               if isinstance(i, BinOp) and i.op == "add")
    store = [i for i in instrs if isinstance(i, Store)][-1]
    assert call.loc[0] == 6
    assert add.loc[0] == 5
    assert store.loc[0] == 5


def test_multiline_assignment_violation_names_the_assignment_line():
    source = """\
long color(blue) secret = 1;
long out = 0;

long id(long v) { return v; }

entry void main() {
    out = secret +
        id(2);
}
"""
    with pytest.raises(SecureTypeError) as excinfo:
        compile_and_partition(source)
    assert excinfo.value.loc is not None
    assert excinfo.value.loc[0] == 7       # `out = secret +`
