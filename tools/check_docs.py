#!/usr/bin/env python3
"""Docs consistency gate: intra-repo links and registry-key coverage.

Usage: check_docs.py [REPO_ROOT]

Two checks, both grep-grade by design (no markdown parser dependency):

1. Every relative markdown link in README.md and docs/*.md must point
   at a file or directory that exists, resolved against the file that
   contains the link. External links (http/https/mailto) and pure
   anchors (#...) are skipped, as are targets that resolve outside the
   repository root (GitHub UI paths like ../../actions/...). Anchors
   on intra-repo targets are stripped before the existence check.

2. Every parameter key registered in src/scenario/src/spec.cpp — the
   field("...")/unit<F>("...")/choice<L>("...")/custom("...") entries
   of the parameter table — must appear verbatim in
   docs/scenario-spec-reference.md.
   A key you can set or sweep but cannot look up is a documentation
   bug; CI fails until the reference page names it.

Exit status: 0 when both checks pass, 1 with every problem listed.
"""

import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
KEY_RE = re.compile(r'\b(?:field|unit|choice|custom)(?:<[^>]*>)?\(\s*"([^"]+)"')


def doc_files(root):
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return [f for f in files if os.path.isfile(f)]


def check_links(root):
    problems = []
    for path in doc_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                bare = target.split("#", 1)[0]
                if not bare:
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), bare))
                # GitHub UI paths (e.g. ../../actions/...) resolve above
                # the repo root; they are not filesystem claims.
                if not resolved.startswith(os.path.normpath(root) + os.sep):
                    continue
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, root)
                    problems.append(
                        f"{rel}:{lineno}: broken link '{target}' "
                        f"(resolved to {os.path.relpath(resolved, root)})")
    return problems


def registry_keys(root):
    spec_cpp = os.path.join(root, "src", "scenario", "src", "spec.cpp")
    with open(spec_cpp, encoding="utf-8") as fh:
        text = fh.read()
    return set(KEY_RE.findall(text))


def check_key_coverage(root):
    reference = os.path.join(root, "docs", "scenario-spec-reference.md")
    if not os.path.isfile(reference):
        return ["docs/scenario-spec-reference.md is missing"]
    with open(reference, encoding="utf-8") as fh:
        text = fh.read()
    problems = []
    for key in sorted(registry_keys(root)):
        if key not in text:
            problems.append(
                f"registry key '{key}' (src/scenario/src/spec.cpp) is not "
                f"documented in docs/scenario-spec-reference.md")
    return problems


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    problems = check_links(root) + check_key_coverage(root)
    if problems:
        for p in problems:
            print(f"check_docs: {p}", file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    files = len(doc_files(root))
    keys = len(registry_keys(root))
    print(f"check_docs: OK ({files} doc file(s), {keys} registry key(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
