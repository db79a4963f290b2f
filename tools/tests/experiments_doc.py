#!/usr/bin/env python3
"""EXPERIMENTS.md's measured tables are bench_paper_suite's own text.

Checks that every fenced ```bench_paper_suite block of the document is
a contiguous run of whole lines of the program's stdout, saved in a
file (ctest: the one run bench_counters makes). For each block that is
not, prints the program's current text from the line equal to the
block's first line, as many lines as the block holds, so the document
can be brought up to date.

Usage: experiments_doc.py <bench_paper_suite stdout> <EXPERIMENTS.md>
"""

import re
import sys

FENCE = re.compile(r"^```bench_paper_suite\n(.*?)^```$", re.M | re.S)


def main(argv):
    stdout_path, doc_path = argv
    with open(stdout_path) as f:
        stdout = f.read()
    with open(doc_path) as f:
        doc = f.read()

    blocks = list(FENCE.finditer(doc))
    if not blocks:
        sys.exit(f"experiments_doc: no bench_paper_suite blocks in {doc_path}")
    out_lines = stdout.split("\n")
    stale = 0
    for m in blocks:
        block = m.group(1)
        if ("\n" + stdout).find("\n" + block) >= 0:
            continue
        stale += 1
        line = doc.count("\n", 0, m.start(1)) + 1
        want = block.split("\n")
        print(f"STALE {doc_path}:{line}: block is not part of the output")
        if want[0] in out_lines:
            at = out_lines.index(want[0])
            print("current text:")
            print("\n".join(out_lines[at:at + len(want) - 1]))
        else:
            print(f"no output line reads: {want[0]!r}")
    print(f"experiments_doc: {len(blocks) - stale}/{len(blocks)} blocks current")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
