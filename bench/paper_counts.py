#!/usr/bin/env python3
"""Checks the counts the paper benches print against committed values.

Runs the six benches that reproduce Sections 8.1-8.3 and Figure 5 from a
build directory, echoes their output, pulls out every count they print,
and compares the counts with bench/paper_counts.expected. Timings (the
Figure 5c runtime column), Table 1's overhead ratios and the optimization
ablation's ratios depend on the host and are not checked.

Usage: python3 bench/paper_counts.py [BUILD_DIR]    (default: build)

Exits 1 with a diff when a count differs or a bench fails.
"""

import difflib
import os
import re
import subprocess
import sys

# Per bench: a pattern matching each data row. The groups are the row's
# label followed by its counts; anything outside the groups is ignored.
ROWS = {
    'bench_sec81_improvability': r'^([^\s\d].*?)\s+(\d+)(?:\s+\(\d+%\))?$',
    'bench_sec82_wrapping': r'^([^\s\d].*?)\s{2,}(\w+)\s+(\w+)$',
    'bench_sec83_compensation': r'^([^\s\d].*?):\s+(\d+)$',
    'bench_fig5a_thresholds': r'^\s*([\d.]+)\s+(\d+)\s+(\d+)$',
    'bench_fig5b_ranges': r'^\s*([a-z-]+)\s+(\d+)\s+(\d+)$',
    # depth, runtime (dropped), judged bad, improvable
    'bench_fig5cd_depth': r'^\s*(\d+)\s+[\d.]+\s+(\d+)\s+(\d+)$',
}


def counts(build_dir):
    """Runs every bench and returns its count lines, or None on failure."""
    lines = []
    for bench, row in ROWS.items():
        print(f'== {bench} ==', flush=True)
        r = subprocess.run([os.path.join(build_dir, bench)],
                           capture_output=True, text=True)
        sys.stdout.write(r.stdout)
        if r.returncode != 0:
            sys.stdout.write(r.stderr)
            print(f'FAIL: {bench} exited {r.returncode}')
            return None
        for text in r.stdout.splitlines():
            m = re.match(row, text)
            if m:
                label, *values = m.groups()
                lines.append(f'{bench}: {label} = {" ".join(values)}')
    return lines


def main():
    build_dir = sys.argv[1] if len(sys.argv) > 1 else 'build'
    expected_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 'paper_counts.expected')
    with open(expected_path) as f:
        expected = [l.rstrip('\n') for l in f
                    if l.strip() and not l.startswith('#')]
    got = counts(build_dir)
    if got is None:
        return 1
    if got != expected:
        print(f'FAIL: paper counts differ from {expected_path}:')
        sys.stdout.writelines(
            d + '\n' for d in difflib.unified_diff(
                expected, got, 'expected', 'measured', lineterm=''))
        return 1
    print(f'OK: {len(got)} paper counts match {expected_path}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
