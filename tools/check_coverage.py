#!/usr/bin/env python3
"""Fail on library functions that no test runs.

Stdlib-only, run by the CI coverage job after a `--coverage` build has run
ctest. It runs `gcov --json-format` over every .gcda file in the build
directory, keeps the functions defined under src/, and sums each one's
call count across translation units, keyed by its path under src/ and its
demangled name. An inline or template function emitted in several
translation units is therefore one entry, and every template instance is
its own entry. Test objects count too: the linker keeps one copy of an
inline function, often a test's, and every call lands in that copy's
counters.

Two kinds of failure:

1. A function with zero calls that the allowlist does not name. A new
   function lands with a caller, or with a line in the allowlist.
2. An allowlist entry that now runs, or that names no function any more.
   Delete the line: the list only shrinks.

The allowlist (default tools/coverage_allowlist.txt) holds one function a
line: its path under the repository root, one space, then its demangled
name exactly as gcov prints it. Blank lines and lines starting with '#'
are ignored. Demangled names depend on the compiler, so CI pins the GCC
major version the list was made with.

Usage: check_coverage.py BUILD_DIR [--allowlist FILE] [--gcov GCOV]
Exits nonzero after printing every failure, each zero-call function in
allowlist format.
"""

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcda_files(build_dir):
    # Absolute: gcov runs in a scratch directory.
    out = []
    for dirpath, _, names in os.walk(os.path.abspath(build_dir)):
        out.extend(os.path.join(dirpath, n) for n in names
                   if n.endswith(".gcda"))
    return sorted(out)


def src_path(path, cwd):
    """The path of `path` relative to the repository root, when it lies
    under src/; None otherwise (system headers, tests, benches)."""
    full = os.path.realpath(os.path.join(cwd, path))
    rel = os.path.relpath(full, ROOT)
    return rel if rel.startswith("src" + os.sep) else None


def call_counts(build_dir, gcov):
    """{(src path, demangled name): calls summed over translation units}."""
    files = gcda_files(build_dir)
    if not files:
        sys.exit(f"check_coverage: no .gcda files under {build_dir}; "
                 "build with --coverage and run ctest first")
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        # One gcov run per object: its JSON document is named after the
        # .gcda file alone, and two objects may share a basename.
        for i, gcda in enumerate(files):
            work = os.path.join(tmp, str(i))
            os.mkdir(work)
            subprocess.run([gcov, "--json-format", "--object-directory",
                            os.path.dirname(gcda), gcda],
                           cwd=work, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            for name in os.listdir(work):
                with gzip.open(os.path.join(work, name), "rt") as f:
                    doc = json.load(f)
                cwd = doc.get("current_working_directory", work)
                for entry in doc["files"]:
                    path = src_path(entry["file"], cwd)
                    if path is None:
                        continue
                    for fn in entry["functions"]:
                        key = (path, fn["demangled_name"])
                        counts[key] = counts.get(key, 0) + \
                            fn["execution_count"]
    return counts


def read_allowlist(path):
    entries = set()
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            file, _, name = line.partition(" ")
            entries.add((file, name))
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir")
    ap.add_argument("--allowlist",
                    default=os.path.join(ROOT, "tools",
                                         "coverage_allowlist.txt"))
    ap.add_argument("--gcov", default="gcov")
    args = ap.parse_args()

    counts = call_counts(args.build_dir, args.gcov)
    allowed = read_allowlist(args.allowlist)
    zero = sorted(k for k, n in counts.items() if n == 0)
    failures = 0
    for path, name in zero:
        if (path, name) not in allowed:
            print(f"no test calls: {path} {name}")
            failures += 1
    for path, name in sorted(allowed):
        if (path, name) not in counts:
            print(f"allowlisted but gone (delete the line): {path} {name}")
            failures += 1
        elif counts[(path, name)] > 0:
            print(f"allowlisted but now called (delete the line): "
                  f"{path} {name}")
            failures += 1
    print(f"check_coverage: {len(counts)} src/ functions, {len(zero)} "
          f"never called, {len(allowed)} allowlisted, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
