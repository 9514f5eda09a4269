#!/usr/bin/env python3
"""Check that markdown links and code pointers reference real files.

Stdlib-only, run by the CI docs job over README.md, docs/, the baselines
README and ROADMAP.md. Three classes of reference are verified:

1. Relative markdown links: `[text](path)` and `[text](path#anchor)`.
   External schemes (http, https, mailto) are skipped — CI must not
   depend on the network. The path is resolved against the linking
   file's directory, then against the repository root. When the target
   is a markdown file (or a pure-anchor link into the same document),
   the `#anchor` fragment is also checked against the target's headings,
   slugified the way GitHub renders them (lowercased, punctuation
   stripped, spaces to hyphens, duplicates suffixed -1, -2, ...).

2. Backtick code pointers: `src/ckptstore/erasure.cc`,
   `tools/check_bench_json.py:42`, `docs/ckptstore.md`, `src/cluster/`.
   A token is treated as a pointer when it contains a path separator and
   either ends with '/' (a directory) or with a known source extension,
   optionally suffixed with line numbers (`:42`, or `:45,49,69`). Each
   line number must lie within the file, so a pointer into code that a
   change shortened fails. Tokens under build/ are skipped (generated
   artifacts). This keeps prose like `--erasure 4,2` or `a.k.a.` out of
   scope while still catching a doc that names a file the tree no longer
   has.

3. Coverage tables. A table that follows a marker comment
   `<!-- coverage: src/sim/pctx.h ProcessCtx -->` has one row per public
   member function of that class, named in backticks in its first cell.
   A public member with no row fails, and so does a row naming a member
   the header no longer declares. Constructors and destructors need no
   row.

Usage: check_md_links.py PATH [PATH ...]   (files or directories)
Exits nonzero after printing every broken reference.
"""

import os
import re
import sys

# [text](target) — non-greedy so adjacent links split correctly; images
# ([!text](target)) match the same way and are checked the same way.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `token` spans one line; the pointer filter below decides relevance.
BACKTICK = re.compile(r"`([^`\n]+)`")
CODE_EXTS = (".h", ".cc", ".py", ".md", ".yml", ".json", ".txt", ".cmake")
POINTER = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_./-]*(:\d+(,\d+)*)?$")
LINE_SUFFIX = re.compile(r":(\d+(?:,\d+)*)$")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
COVERAGE = re.compile(r"^<!--\s*coverage:\s*(\S+)\s+(\w+)\s*-->\s*$", re.M)
ACCESS = re.compile(r"^\s*(public|protected|private)\s*:(?!:)")


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def split_pointer(token):
    """(path, line numbers): `a.cc:4,9` -> ("a.cc", [4, 9])."""
    m = LINE_SUFFIX.search(token)
    if not m:
        return token, []
    return token[:m.start()], [int(n) for n in m.group(1).split(",")]


def is_code_pointer(token):
    """A backtick token that names a path in the tree (see module doc)."""
    if "/" not in token or not POINTER.match(token):
        return False
    path, _ = split_pointer(token)
    if path.startswith("build/"):
        return False  # generated artifacts are not in the tree
    return path.endswith("/") or path.endswith(CODE_EXTS)


def resolve(target, md_dir, root):
    """The resolved path for `target` relative to the md file or the repo
    root, or None when it exists nowhere."""
    path = target.split("#", 1)[0]
    if not path:
        return ""  # pure-anchor link into the same document
    path = path.rstrip("/") or path
    for base in (md_dir, root):
        cand = os.path.normpath(os.path.join(base, path))
        if os.path.exists(cand):
            return cand
    return None


def slugify(heading):
    """A markdown heading's GitHub anchor: lowercase, punctuation stripped
    (hyphens and underscores survive), spaces to hyphens."""
    # Inline code/emphasis markers render as text content, not punctuation
    # to strip wholesale: `--flag` keeps its hyphens.
    text = heading.strip().lower()
    text = re.sub(r"[`*]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_path):
    """All anchors GitHub generates for `md_path`'s ATX headings, with
    duplicate slugs suffixed -1, -2, ... in document order."""
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    # Drop fenced code blocks: a '# comment' in a shell transcript is not
    # a heading.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    anchors = set()
    counts = {}
    for m in re.finditer(r"^#{1,6}[ \t]+(.+?)[ \t]*#*$", text, flags=re.M):
        slug = slugify(m.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def check_anchor(target, resolved, md_path):
    """None when `target`'s #fragment lands on a heading, else an error."""
    if "#" not in target:
        return None
    anchor = target.split("#", 1)[1]
    dest = md_path if resolved == "" else resolved
    if not dest.endswith(".md"):
        return None  # only markdown targets have heading anchors
    if anchor not in heading_anchors(dest):
        return f"anchor '#{anchor}' not found in {os.path.relpath(dest)}"
    return None


def check_file(md_path, root):
    broken = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    md_dir = os.path.dirname(os.path.abspath(md_path))

    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_SCHEMES):
            continue
        # GitHub web-UI routes (CI badge and its click-through) resolve on
        # github.com relative to the repo page, never in the tree.
        if "/actions/workflows/" in target:
            continue
        line = text.count("\n", 0, match.start()) + 1
        resolved = resolve(target, md_dir, root)
        if resolved is None:
            broken.append((line, f"link target '{target}' not found"))
            continue
        anchor_err = check_anchor(target, resolved, os.path.abspath(md_path))
        if anchor_err:
            broken.append((line, anchor_err))

    # Strip fenced code blocks before scanning backticks: shell transcripts
    # legitimately mention files that only exist after a build.
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for match in BACKTICK.finditer(prose):
        token = match.group(1).strip()
        if not is_code_pointer(token):
            continue
        path, lines = split_pointer(token)
        resolved = resolve(path, md_dir, root)
        line = text.count("\n", 0, text.find(f"`{token}`")) + 1
        if resolved is None:
            broken.append((line, f"code pointer '{token}' not found"))
            continue
        if lines and os.path.isfile(resolved):
            with open(resolved, encoding="utf-8", errors="replace") as f:
                last = sum(1 for _ in f)
            if max(lines) > last:
                broken.append((line, f"code pointer '{token}' is past the "
                               f"end of {path} ({last} lines)"))
    return broken + check_coverage(text, root)


def public_members(header, cls):
    """Names of `cls`'s public member functions in `header`, or None when
    the header has no such class. Declarations are read at the class
    body's brace depth; inline bodies are skipped."""
    with open(header, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", text, flags=re.S)
    m = re.search(r"\bclass\s+" + cls + r"\b[^;{]*\{", text)
    if not m:
        return None
    names, access, stmt, depth = set(), "private", "", 1

    def declare(stmt):
        nonlocal access
        while True:
            label = ACCESS.match(stmt)
            if not label:
                break
            access = label.group(1)
            stmt = stmt[label.end():]
        fn = re.search(r"(~?\w+)\s*\(", stmt)
        if access == "public" and fn and fn.group(1).lstrip("~") != cls:
            names.add(fn.group(1))

    for ch in text[m.end():]:
        if ch == "{":
            if depth == 1:
                declare(stmt)
                stmt = ""
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            if ch == ";":
                declare(stmt)
                stmt = ""
            else:
                stmt += ch
    declare(stmt)  # a trailing access label
    return names


def check_coverage(text, root):
    """Every coverage table in `text` against its class (see module doc)."""
    broken = []
    for m in COVERAGE.finditer(text):
        header, cls = m.group(1), m.group(2)
        line = text.count("\n", 0, m.start()) + 1
        path = os.path.join(root, header)
        members = public_members(path, cls) if os.path.isfile(path) else None
        if members is None:
            broken.append((line, f"coverage marker: no class {cls} in "
                           f"{header}"))
            continue
        rows = set()
        table = text[m.end():].lstrip("\n").split("\n")
        for row in table[2:]:  # past the header and the separator row
            if not row.startswith("|"):
                break
            cell = re.match(r"\|\s*`(\w+)", row)
            if cell:
                rows.add(cell.group(1))
        for name in sorted(members - rows):
            broken.append((line, f"coverage table misses public "
                           f"{cls}::{name} ({header})"))
        for name in sorted(rows - members):
            broken.append((line, f"coverage table names {cls}::{name}, "
                           f"which {header} does not declare public"))
    return broken


def collect(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _, files in os.walk(p):
                out.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(files)
                    if f.endswith(".md")
                )
        else:
            out.append(p)
    return out


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = repo_root()
    rc = 0
    checked = 0
    for md in collect(argv[1:]):
        checked += 1
        for line, msg in check_file(md, root):
            print(f"FAIL {md}:{line}: {msg}", file=sys.stderr)
            rc = 1
    if rc == 0:
        print(f"OK   {checked} markdown file(s): all links and code "
              "pointers resolve, and every coverage table is complete")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
