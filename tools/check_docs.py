#!/usr/bin/env python3
"""Docs-vs-source linter (CI: the docs-check job).

Documentation rots by referencing things that were renamed or removed, so
this script fails CI on dangling references. Six checks, all grep-level —
no build needed:

  1. Every `talus.<name>` property named in the markdown exists as a
     string literal somewhere under src/.
  2. Every `talus_<name>` Prometheus family named in the markdown (modulo
     the _bucket/_sum/_count suffixes histograms synthesize) is emitted
     somewhere under src/.
  3. Every `DESIGN.md §X[.Y]` reference — in markdown OR in source
     comments — resolves to a real `## §X` / `### §X.Y` heading in
     DESIGN.md.
  4. Every repo-relative file path mentioned in the markdown exists
     (generated artifacts like BENCH_*.json are allowlisted).
  5. Every `DbOptions::<field>` reference — in markdown OR in source
     comments — names a field actually declared in src/lsm/options.h.
  6. The other direction of check 2: every quoted "talus_<name>" family
     under src/metrics/ and src/server/ (the exposition's sources) is
     named in docs/OPERATIONS.md.

Run locally from the repo root: python3 tools/check_docs.py
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = sorted(
    glob.glob(os.path.join(REPO, "*.md"))
    + glob.glob(os.path.join(REPO, "docs", "*.md"))
)
# ISSUE.md/PAPERS.md/SNIPPETS.md describe other repos' code; CHANGES.md is
# an append-only history whose old lines may name refactored-away files.
DOC_SKIP = {"ISSUE.md", "PAPERS.md", "SNIPPETS.md", "CHANGES.md", "PAPER.md"}

SRC_GLOBS = ["src/**/*.cc", "src/**/*.h", "bench/*.cc", "bench/*.h",
             "examples/*.cpp", "tests/*.cc", "tools/*.py"]

# Paths that docs legitimately mention but that only exist at runtime or in
# CI (bench output, build trees, sanitizer dirs, artifact names).
PATH_ALLOW = re.compile(
    r"^(build|build-san)(/|$)"
    r"|^BENCH_[A-Za-z0-9_.]*\.json$"
    r"|^bench/baseline/"
    r"|^stats_timeseries"
    r"|^/"  # Absolute paths (DB dirs like /tmp/talus_server).
)

PROPERTY_RE = re.compile(r"talus\.[a-z][a-z0-9-]*")
METRIC_RE = re.compile(r"(?<![A-Za-z0-9_/])talus_[a-z][a-z0-9_]*")
SECTION_RE = re.compile(r"DESIGN\.md §(\d+(?:\.\d+)?)")
# Repo-relative paths with a known top-level dir and a file extension
# (plain `src/server/` directory mentions are cheap to verify too).
PATH_RE = re.compile(
    r"\b((?:src|docs|bench|tests|tools|examples|\.github)"
    r"(?:/[A-Za-z0-9_.\-]+)+/?)")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def source_corpus():
    blobs = []
    for pattern in SRC_GLOBS:
        for path in glob.glob(os.path.join(REPO, pattern), recursive=True):
            blobs.append(read(path))
    return "\n".join(blobs)


DBOPTIONS_RE = re.compile(r"DbOptions::([A-Za-z_][A-Za-z0-9_]*)")

EXPORTER_GLOBS = ["src/metrics/*.cc", "src/metrics/*.h", "src/server/*.cc",
                  "src/server/*.h"]
FAMILY_LITERAL_RE = re.compile(r'"(talus_[a-z][a-z0-9_]*)"')


def exported_families():
    """Quoted talus_* family names in the exposition's sources."""
    families = set()
    for pattern in EXPORTER_GLOBS:
        for path in glob.glob(os.path.join(REPO, pattern)):
            families.update(FAMILY_LITERAL_RE.findall(read(path)))
    return families


def dboptions_fields():
    """Field (and method) names declared in struct DbOptions."""
    text = read(os.path.join(REPO, "src", "lsm", "options.h"))
    m = re.search(r"struct DbOptions \{(.*?)\n\};", text, re.DOTALL)
    if not m:
        return set()
    names = set()
    for line in m.group(1).splitlines():
        line = line.split("//")[0]
        # `type name = default;` / `type name;` declarations.
        decl = re.match(r"\s*[A-Za-z_][A-Za-z0-9_:<>*&\s]*?"
                        r"\b([A-Za-z_][A-Za-z0-9_]*)\s*(=|;)", line)
        if decl:
            names.add(decl.group(1))
    return names


def design_sections():
    sections = set()
    for line in read(os.path.join(REPO, "DESIGN.md")).splitlines():
        m = re.match(r"#+ §(\d+(?:\.\d+)?)\b", line)
        if m:
            sections.add(m.group(1))
    return sections


def main():
    src = source_corpus()
    sections = design_sections()
    fields = dboptions_fields()
    errors = []
    if not fields:
        errors.append("src/lsm/options.h: could not parse struct DbOptions")

    docs = [p for p in DOC_FILES if os.path.basename(p) not in DOC_SKIP]
    for path in docs:
        rel = os.path.relpath(path, REPO)
        text = read(path)

        for prop in sorted(set(PROPERTY_RE.findall(text))):
            if f'"{prop}"' not in src:
                errors.append(f"{rel}: property {prop} not found in source")

        metric_mentions = set()
        for m in METRIC_RE.finditer(text):
            if re.match(r"\.[a-z]", text[m.end():m.end() + 2]):
                continue  # Filename like talus_server.cpp, not a metric.
            # `talus_server_*` names a family prefix, not one metric.
            is_prefix = text[m.end():m.end() + 1] == "*"
            metric_mentions.add((m.group(0), is_prefix))
        for metric, is_prefix in sorted(metric_mentions):
            if is_prefix:
                if f'"{metric}' not in src:
                    errors.append(
                        f"{rel}: no metric with prefix {metric}* in source")
                continue
            base = re.sub(r"_(bucket|sum|count)$", "", metric)
            if f'"{base}"' not in src and f'"{metric}"' not in src:
                errors.append(f"{rel}: metric {metric} not found in source")

        for sec in sorted(set(SECTION_RE.findall(text))):
            if sec not in sections:
                errors.append(f"{rel}: DESIGN.md §{sec} has no such heading")

        for field in sorted(set(DBOPTIONS_RE.findall(text))):
            if field not in fields:
                errors.append(
                    f"{rel}: DbOptions::{field} is not a DbOptions field")

        for p in sorted(set(PATH_RE.findall(text))):
            clean = p.rstrip("/")
            if PATH_ALLOW.match(p) or PATH_ALLOW.match(clean):
                continue
            if not os.path.exists(os.path.join(REPO, clean)):
                errors.append(f"{rel}: path {p} does not exist")

    # Source comments reference DESIGN.md sections too; keep those honest.
    for sec in sorted(set(SECTION_RE.findall(src))):
        if sec not in sections:
            errors.append(f"src: DESIGN.md §{sec} has no such heading")
    for field in sorted(set(DBOPTIONS_RE.findall(src))):
        if field not in fields:
            errors.append(f"src: DbOptions::{field} is not a DbOptions field")

    # Every exported family has a runbook entry.
    ops = read(os.path.join(REPO, "docs", "OPERATIONS.md"))
    for family in sorted(exported_families()):
        if not re.search(r"(?<![A-Za-z0-9_])" + family + r"(?![A-Za-z0-9_])",
                         ops):
            errors.append(
                f"src: metric {family} is not documented in docs/OPERATIONS.md")

    if errors:
        for e in errors:
            print(f"docs-check: {e}", file=sys.stderr)
        print(f"docs-check: {len(errors)} dangling reference(s)",
              file=sys.stderr)
        return 1
    print(f"docs-check: {len(docs)} doc file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
