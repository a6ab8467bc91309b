"""Byte-identity gate for the secure-value refactor.

Both drivers lower through :mod:`repro.secval`; these golden digests
pin the exact IR bytes at two points:

* the partitioned program, for the reference workloads of both
  frontends and for the cross-language vault module;
* the frontend output before any pass runs
  (``compile_source(..., passes=())``), for every shipped program and
  for one small lowering corpus per language
  (``tests/secval/corpus/``).

Any refactor of the lowering or the contract layer (or any
nondeterminism creeping back into the pipeline, see the mem2reg
layout-ordering fix) shows up as a digest change here.
"""

import hashlib
import os

import pytest

from repro.apps.minicache.minic_source import ANNOTATED_SOURCE, FULL_ANNOTATED
from repro.core.colors import RELAXED
from repro.core.compiler import PrivagicCompiler, compile_and_partition
from repro.frontend import compile_source as minic_compile
from repro.frontend.minipy import compile_source as minipy_compile
from repro.ir.printer import print_module
from repro.runtime.executor import run_partitioned
from repro.secval import compile_cross
from repro.serve.secure_source import SECURE_KV_SOURCE

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def read(*parts) -> str:
    with open(os.path.join(*parts)) as handle:
        return handle.read()


FIG7_RELAXED_DIGEST = \
    "324f3c0567ecaffb9dafc7e28c4c114d120c80a2159746a73ed2175db269709d"
MINICACHE_HARDENED_DIGEST = \
    "d5189844728ffa7e1eb79bc6c0b2bfde3f00084df24a0b6c083b0af20d364fc8"

#: Partition digests of examples/secure_counter.mpy, per mode.
SECURE_COUNTER_DIGESTS = {
    "hardened":
    "7e82324365e09bda0102a1775384c8dfdfcaedd7841ae1e4c088575c0987f399",
    "relaxed":
    "3d13f8540f69058930461df49094ab84e6c70b5a9bd2f58a6768c515da523347",
}
#: Partition digest of the vault module examples/cross_language.py
#: builds (vault.c + vault_workload.mpy, relaxed).
VAULT_CROSS_DIGEST = \
    "26f32af0775c46e6acae9917964ec67d7374cfc4af1cab22d2e99bd4e8230fee"

#: Frontend output (no pass run) per program: (compile, source).
FRONTEND_PROGRAMS = {
    "fig7.c": (minic_compile, read(ROOT, "examples", "fig7.c")),
    "vault.c": (minic_compile, read(ROOT, "examples", "vault.c")),
    "minicache": (minic_compile, ANNOTATED_SOURCE),
    "minicache_full": (minic_compile, FULL_ANNOTATED),
    "secure_kv": (minic_compile, SECURE_KV_SOURCE),
    "secure_counter.mpy": (
        minipy_compile, read(ROOT, "examples", "secure_counter.mpy")),
    "corpus/lowering.c": (minic_compile, read(CORPUS, "lowering.c")),
    "corpus/lowering.mpy": (minipy_compile, read(CORPUS, "lowering.mpy")),
}
FRONTEND_DIGESTS = {
    "corpus/lowering.c":
    "dda2af253e9f11f4a83e3e1490961d62d28a1c446dc2eb68479c11e667a081c4",
    "corpus/lowering.mpy":
    "0f254fd5288668b469b5c39839dbb8393b5943d4006f059842aa36d49dd6efe0",
    "fig7.c":
    "c7903899675a1118735bd92b6b08f52ec89934866d74786b2e7d120cccf1cb53",
    "minicache":
    "7c80681aac9d8cfe1930f0240ede697c86ecc2b78daef2031ffa93b6ed40047e",
    "minicache_full":
    "4358d427dda6c274be6e142be2fd0d39e7dbff8f4e9339eeeabe7f85220ddc1d",
    "secure_counter.mpy":
    "9505604aecf105438007e0d40062c055b801a22cc2e928d67c0eedb048d4f42e",
    "secure_kv":
    "2357666fda1b537004cfa50987f3ac42ed6162faeb666e08980dbce588352543",
    "vault.c":
    "eb537774fd56d57b4b10a745d540a4aa5fac89bccacae28f326e2831e4864eb4",
}
#: Frontend output of the cross-language vault module.
VAULT_CROSS_FRONTEND_DIGEST = \
    "37a8410aa912279e1da3ec36a799d83f7289ebe2eb9deeaedc1ea1ab4f4bf16c"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def partition_digest(program) -> str:
    return digest("\n".join(f"== {color} ==\n"
                            + print_module(program.modules[color])
                            for color in sorted(program.modules)))


def vault_module(passes=None):
    return compile_cross(
        [("minic", read(ROOT, "examples", "vault.c"), "vault.c"),
         ("minipy", read(ROOT, "examples", "vault_workload.mpy"),
          "vault_workload.mpy")],
        module_name="vault", passes=passes)


def frontend_output(name: str) -> str:
    compile_source, source = FRONTEND_PROGRAMS[name]
    return print_module(compile_source(source, passes=()))


def test_fig7_relaxed_partition_is_byte_identical():
    program = compile_and_partition(read(ROOT, "examples", "fig7.c"),
                                    mode="relaxed")
    assert partition_digest(program) == FIG7_RELAXED_DIGEST


def test_minicache_hardened_partition_is_byte_identical():
    program = compile_and_partition(ANNOTATED_SOURCE, mode="hardened")
    assert partition_digest(program) == MINICACHE_HARDENED_DIGEST


@pytest.mark.parametrize("mode", sorted(SECURE_COUNTER_DIGESTS))
def test_secure_counter_partition_is_byte_identical(mode):
    program = compile_and_partition(
        read(ROOT, "examples", "secure_counter.mpy"), mode=mode,
        frontend="minipy")
    assert partition_digest(program) == SECURE_COUNTER_DIGESTS[mode]


def test_cross_language_vault_partition_is_byte_identical():
    program = PrivagicCompiler(mode=RELAXED).compile_module(vault_module())
    assert partition_digest(program) == VAULT_CROSS_DIGEST


@pytest.mark.parametrize("name", sorted(FRONTEND_PROGRAMS))
def test_frontend_output_is_byte_identical(name):
    assert digest(frontend_output(name)) == FRONTEND_DIGESTS[name]


def test_cross_language_frontend_output_is_byte_identical():
    text = print_module(vault_module(passes=()))
    assert digest(text) == VAULT_CROSS_FRONTEND_DIGEST


@pytest.mark.parametrize("frontend, name", [("minic", "lowering.c"),
                                            ("minipy", "lowering.mpy")])
def test_lowering_corpus_runs(frontend, name):
    program = compile_and_partition(read(CORPUS, name), mode="relaxed",
                                    frontend=frontend)
    assert run_partitioned(program, "main")[0] == 71


def test_partition_is_deterministic_within_a_process():
    # Two fresh compilations must agree byte for byte (the phi naming
    # of mem2reg is ordered by block layout, not by set iteration).
    first = compile_and_partition(ANNOTATED_SOURCE, mode="hardened")
    second = compile_and_partition(ANNOTATED_SOURCE, mode="hardened")
    assert partition_digest(first) == partition_digest(second)
