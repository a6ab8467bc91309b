// Lowering corpus: reaches every lowering construct MiniC shares
// with MiniPy (structured control flow, a return mid-body, string
// literals, short-circuit and negation, pointer and float
// truthiness, bool widening, a vararg printf and strcmp as a
// condition).  Its frontend output is pinned by digest in
// tests/secval/test_golden_partitions.py; main() returns 71.

long hits = 0;
char banner[7] = "corpus";

long classify(long x) {
    if (x > 100) return 3;
    if (x) {
        hits = hits + 1;
    } else {
        return 0;
    }
    return 1;
    hits = hits + 100;
}

entry int main() {
    long i = 0;
    long total = 0;
    char *p = "hello";
    char *none = 0;
    while (i < 10) {
        i = i + 1;
        if (i == 2) continue;
        if (i > 7) break;
        if (i % 2 == 0 && total < 100 || !p) {
            total = total + i;
        } else {
            total = total - 1;
        }
    }
    if (p && !none) printf("%s %ld %d\n", p, total, 7);
    if (strcmp(p, "hello")) total = total + 1000;
    if (!strcmp(banner, "corpus")) total = total + classify(total);
    long flag = total > 3;
    double ratio = 0.5;
    if (ratio) total = total * 10 + flag;
    return total;
}
