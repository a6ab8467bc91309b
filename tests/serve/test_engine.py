"""SecureKVEngine: the persistent partitioned KV app behind the
server — batching, persistence across drives, context retirement."""

import itertools
from collections import defaultdict

import pytest

from repro.cli import main
from repro.serve.engine import SecureKVEngine, compile_secure_kv
from repro.serve.secure_source import NBUCKETS


@pytest.fixture(scope="module")
def program():
    return compile_secure_kv()


@pytest.fixture
def engine(program):
    return SecureKVEngine(program=program)


def test_partition_colors(program):
    assert set(program.colors) == {"U", "store"}


def test_basic_ops_one_batch(engine):
    digest = SecureKVEngine.digest
    replies = engine.execute([
        ("set", "k1", b"hello"),
        ("get", "k1"),
        ("get", "nope"),
        ("delete", "k1"),
        ("get", "k1"),
        ("delete", "k1"),
    ])
    assert replies == [1, digest(b"hello"), 0, 1, 0, 0]
    assert engine.drives == 1
    assert engine.ops_served == 6


def test_state_persists_across_drives(engine):
    digest = SecureKVEngine.digest
    assert engine.execute([("set", "a", b"1"), ("set", "b", b"2")]) \
        == [1, 1]
    assert engine.execute([("get", "a")]) == [digest(b"1")]
    assert engine.execute([("set", "a", b"3"), ("get", "a")]) \
        == [1, digest(b"3")]
    assert engine.execute([("get", "b")]) == [digest(b"2")]
    assert engine.drives == 4


def test_contexts_are_retired_between_drives(engine):
    for round_number in range(12):
        engine.execute([("set", f"k{round_number}", b"v"),
                        ("get", f"k{round_number}")])
    # Finished app contexts and their worker groups are pruned: a
    # long-lived server scans a constant-size context list.
    assert len(engine.runtime.machine.contexts) == 0
    assert engine.runtime._groups == {}


def test_batching_amortizes_fixed_costs(engine):
    """The whole point of the serve layer: per-op interpreter steps
    must not grow with batch size (the fixed per-drive costs are
    Python-side; steps/op should mildly *shrink* when batched)."""
    engine.execute([("set", "warm", b"x")] * 4)
    before = engine.steps
    engine.execute([("get", "warm")])
    single = engine.steps - before
    before = engine.steps
    engine.execute([("get", "warm")] * 16)
    batched = (engine.steps - before) / 16
    assert batched <= single


def test_empty_batch_is_a_noop(engine):
    assert engine.execute([]) == []
    assert engine.drives == 0


def test_unknown_op_is_rejected(engine):
    with pytest.raises(ValueError):
        engine.execute([("increment", "k")])


def test_digest_is_stable_nonzero_and_56bit():
    d1 = SecureKVEngine.digest(b"payload")
    assert d1 == SecureKVEngine.digest(b"payload")
    assert d1 != SecureKVEngine.digest(b"payload2")
    assert d1 % 2 == 1          # never the 0 miss reply
    assert 0 < d1 < (1 << 56)
    assert SecureKVEngine.digest("text") == \
        SecureKVEngine.digest(b"text")


def bucket(key) -> int:
    """The enclave index's bucket for ``key`` (``kv_*``'s
    ``(k >> 1) % NBUCKETS``)."""
    return (SecureKVEngine.digest(key) >> 1) % NBUCKETS


def colliding_keys(count):
    """The first ``count`` keys ``col<i>`` that share a bucket."""
    by_bucket = defaultdict(list)
    for i in itertools.count():
        key = f"col{i}"
        chain = by_bucket[bucket(key)]
        chain.append(key)
        if len(chain) == count:
            return chain


def get_steps(engine, key) -> int:
    """Interpreter steps of a one-``get`` drive."""
    before = engine.steps
    engine.execute([("get", key)])
    return engine.steps - before


@pytest.mark.parametrize("engine_name", ["legacy", "decoded", "traced"])
def test_colliding_keys_share_one_chain(program, engine_name):
    """With NBUCKETS buckets ordinary keys almost never collide, so
    the chain paths (an overwrite past the head, ``kv_del``'s
    ``tprev->next = target->next`` unlink) are driven on purpose."""
    engine = SecureKVEngine(program=program, engine=engine_name)
    digest = SecureKVEngine.digest
    keys = colliding_keys(4)
    # kv_set prepends, so the chain is keys[3], keys[2], keys[1], keys[0].
    head, middle, tail = keys[3], keys[2], keys[0]
    model = {key: f"v-{key}".encode() for key in keys}
    assert engine.execute([("set", key, model[key]) for key in keys]) \
        == [1] * 4
    # The keys really chain: a get scans the whole chain, so one of
    # them costs more than a get on a key alone in its bucket.
    solo = next(f"solo{i}" for i in range(NBUCKETS)
                if bucket(f"solo{i}") != bucket(head))
    assert engine.execute([("set", solo, b"s")]) == [1]
    assert get_steps(engine, tail) > get_steps(engine, solo)

    def check_gets():
        replies = engine.execute([("get", key) for key in keys])
        assert replies == [digest(model[key]) if key in model else 0
                           for key in keys]

    model[keys[1]] = b"overwritten"
    assert engine.execute([("set", keys[1], b"overwritten")]) == [1]
    check_gets()
    for victim in (middle, head, tail):
        assert engine.execute([("delete", victim)]) == [1]
        del model[victim]
        check_gets()
    assert engine.execute([("delete", middle)]) == [0]
    assert list(model) == [keys[1]]


def _mean_get_steps(program, resident: int) -> float:
    """Mean steps of a ``get`` on a present key (256 of them, in
    batches of 16) with ``resident`` keys loaded."""
    engine = SecureKVEngine(program=program)
    keys = [f"key{i}" for i in range(resident)]
    for start in range(0, resident, 64):
        engine.execute([("set", key, b"v")
                        for key in keys[start:start + 64]])
    sample = keys[::max(1, resident // 256)]
    before = engine.steps
    for start in range(0, len(sample), 16):
        engine.execute([("get", key) for key in sample[start:start + 16]])
    return (engine.steps - before) / len(sample)


def test_get_steps_do_not_grow_with_resident_keys(program):
    """A get walks a chain of about one entry whether 64 or 4096 keys
    are resident. Steps are an exact count, so this holds on any host.
    An index of 4096 usable buckets or fewer breaks it; the next test
    catches a bucket picked by the digest's forced low bit."""
    small = _mean_get_steps(program, 64)
    large = _mean_get_steps(program, 4096)
    assert large <= 1.2 * small, (small, large)


def test_forced_low_bit_does_not_pick_the_bucket(program):
    """Two keys whose digests agree modulo NBUCKETS (so ``k % NBUCKETS``
    would chain them) land in different buckets: finding the first one
    costs the same with the second resident as without it."""
    digest = SecureKVEngine.digest
    first = "low0"
    second = next(
        f"low{i}" for i in range(1, 64 * NBUCKETS)
        if digest(f"low{i}") % NBUCKETS == digest(first) % NBUCKETS
        and bucket(f"low{i}") != bucket(first))
    alone = SecureKVEngine(program=program)
    alone.execute([("set", first, b"v")])
    both = SecureKVEngine(program=program)
    both.execute([("set", first, b"v"), ("set", second, b"v")])
    assert get_steps(both, first) == get_steps(alone, first)


def test_serving_defaults_to_decoded(program, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert SecureKVEngine(program=program).runtime.machine.engine \
        == "decoded"
    monkeypatch.setenv("REPRO_ENGINE", "traced")
    assert SecureKVEngine(program=program).runtime.machine.engine \
        == "traced"


def test_serve_help_states_the_default(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "interpreter engine (default: decoded, or REPRO_ENGINE)" \
        in help_text
