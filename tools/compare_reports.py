"""List every report leaf that differs between two report-digest files.

    python tools/compare_reports.py parent.txt change.txt

Both files come from the ``tools/report_digests.py`` pytest plugin.  Reports
are matched by (test node id, call index).  For each pair whose digests
differ, every differing leaf is printed as

    <node id> TAB <call index> TAB <dotted path> TAB <A> TAB <B> TAB abs=<|A-B|> rel=<rel>

where ``rel`` is |A - B| / max(|A|, |B|) for two numbers and ``-`` otherwise.
Reports present in only one file are printed as ``only in A`` / ``only in B``.
The last line counts reports compared, reports that differ and leaves that
differ.  The exit status is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def read_reports(path: str) -> dict:
    """(node id, call index) -> (digest, parsed report)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            node, index, digest, text = line.rstrip("\n").split("\t", 3)
            out[(node, int(index))] = (digest, json.loads(text))
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def leaf_diffs(a, b, path: str = ""):
    """Yield (dotted path, a, b) for every leaf where the two values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield sub, a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from leaf_diffs(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def describe(a, b) -> str:
    if _is_number(a) and _is_number(b):
        gap = abs(a - b)
        scale = max(abs(a), abs(b))
        rel = gap / scale if scale else 0.0
        return f"abs={gap:.3e} rel={rel:.3e}"
    return "abs=- rel=-"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_reports.py A B", file=sys.stderr)
        return 2
    left, right = read_reports(argv[0]), read_reports(argv[1])
    n_reports = n_leaves = 0
    for key in sorted(set(left) | set(right)):
        node, index = key
        if key not in right:
            print(f"{node}\t{index}\tonly in A")
            n_reports += 1
            continue
        if key not in left:
            print(f"{node}\t{index}\tonly in B")
            n_reports += 1
            continue
        (digest_a, a), (digest_b, b) = left[key], right[key]
        if digest_a == digest_b:
            continue
        n_reports += 1
        for path, x, y in leaf_diffs(a, b):
            n_leaves += 1
            print(f"{node}\t{index}\t{path}\t{json.dumps(x)}\t{json.dumps(y)}\t"
                  f"{describe(x, y)}")
    print(f"{len(set(left) | set(right))} reports, {n_reports} differ, "
          f"{n_leaves} leaves differ")
    return 1 if n_reports else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
