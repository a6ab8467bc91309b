"""The annotated MiniC application the socket server hosts.

A key/value index whose keys and values carry the named color
``store`` — the same partitioning story as the annotated minicache of
:mod:`repro.apps.minicache.minic_source`, restructured for serving:
the entry point ``secure_batch(count)`` pulls ``count`` requests from
the untrusted feed externals and answers through ``push_reply``, so
one interpreter drive serves a whole batch of network requests.
That is the server's amortization lever: the per-drive fixed costs
(application context, worker group, per-color worker creation,
scheduler warm-up and drain) are paid once per *batch*, not once per
request.

Coloring notes (all paper rules, found the hard way):

* The feed externals are plain ``extern`` — in hardened mode an
  untrusted external's result is U (Iago protection, §4), which gives
  every ``kv_*`` specialization a U chunk and the classify/spawn
  protocol of Figure 7.  Declaring them ``ignore`` would make the
  arguments F and leave spawn-only call sites with no driver.
* ``struct item`` is uniformly ``store``-colored, so pointers to it
  are ``store`` values and every pointer-derived branch condition
  (``e->key == k``, ``found == 0``) must be declassified before
  branching, or Rule 4 colors the region and U-colored state becomes
  unreachable inside it.
* Values are 56-bit digests, not bytes: the untrusted side keeps the
  actual payload (like the paper's memcached keeps values in unsafe
  memory) and the enclave keeps an authenticated digest per key — the
  server cross-checks every response against it.

The index:

* Every digest has its low bit forced to 1 (so none equals the ``0``
  miss reply), so the bucket is taken from the bits above it,
  ``(k >> 1) % NBUCKETS``; ``k % NBUCKETS`` would put every key in an
  odd bucket and leave half the table empty.
* :data:`NBUCKETS` is a fixed constant sized to the largest resident
  key count any shipped serve path loads (16384, the
  ``benchmarks/bench_serve.py`` shard sweep), so chains stay at or
  below about one entry on every shipped load. It is deliberately not
  a knob, and the index deliberately does not rehash on grow: an
  in-enclave resize would add code to the trusted computing base and
  compile time to the served program, to serve loads nothing ships.
"""

#: Number of hash buckets in the enclave-side index.
NBUCKETS = 16384

#: Request opcodes of the feed protocol (``next_request`` values).
OP_GET = 1
OP_SET = 2
OP_DELETE = 3

SECURE_KV_SOURCE = """
    ignore long classify(long v);
    ignore long declassify(long v);
    extern long next_request();
    extern long next_key();
    extern long next_value();
    extern void push_reply(long v);

    struct item {
        long color(store) key;
        long color(store) value;
        struct item* next;
    };

    struct item* buckets[%(nbuckets)d];
    long kv_count = 0;

    long kv_set(long key, long value) {
        long k = classify(key);
        long v = classify(value);
        long b = (k >> 1) %% %(nbuckets)d;
        struct item* e = buckets[b];
        struct item* found = 0;
        while (e != 0) {
            if (e->key == k) found = e;
            e = e->next;
        }
        long miss = declassify(found == 0);
        if (miss) {
            found = malloc(sizeof(struct item));
            found->key = k;
            found->next = buckets[b];
            buckets[b] = found;
            kv_count = kv_count + 1;
        }
        found->value = v;
        return 1;
    }

    long kv_get(long key) {
        long k = classify(key);
        long b = (k >> 1) %% %(nbuckets)d;
        struct item* e = buckets[b];
        long v = 0;
        while (e != 0) {
            if (e->key == k) v = e->value;
            e = e->next;
        }
        long dv = declassify(v);
        return dv;
    }

    long kv_del(long key) {
        long k = classify(key);
        long b = (k >> 1) %% %(nbuckets)d;
        struct item* e = buckets[b];
        struct item* prev = 0;
        struct item* target = 0;
        struct item* tprev = 0;
        while (e != 0) {
            long match = declassify(e->key == k);
            if (match) { target = e; tprev = prev; }
            prev = e;
            e = e->next;
        }
        long found = declassify(target != 0);
        if (found) {
            long head = declassify(tprev == 0);
            if (head) { buckets[b] = target->next; }
            else { tprev->next = target->next; }
            kv_count = kv_count - 1;
        }
        return found;
    }

    entry long secure_batch(long count) {
        long served = 0;
        for (long i = 0; i < count; i++) {
            long op = next_request();
            long key = next_key();
            long out = 0;
            if (op == %(op_set)d) {
                long val = next_value();
                out = kv_set(key, val);
            } else {
                if (op == %(op_get)d) { out = kv_get(key); }
                else {
                    if (op == %(op_delete)d) { out = kv_del(key); }
                }
            }
            push_reply(out);
            served = served + 1;
        }
        return served;
    }
""" % {"nbuckets": NBUCKETS, "op_get": OP_GET, "op_set": OP_SET,
       "op_delete": OP_DELETE}
