#!/usr/bin/env bash
# Docs drift check (grep-based, no toolchain needed).
#
# Fails when:
#   * docs/FORMAT.md or docs/ARCHITECTURE.md is missing or unlinked
#     from README.md;
#   * any `flowzip ...` snippet in README.md or docs/*.md uses a
#     --flag the CLI (src/bin/flowzip.rs) does not know, or the CLI's
#     USAGE string names a --flag the README never mentions;
#   * docs/*.md references a repo path that does not exist;
#   * docs/*.md references a backticked type/function name that
#     appears nowhere in the workspace source.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
    echo "check_docs: $*" >&2
    fail=1
}

# 1. The written docs must exist...
for f in docs/FORMAT.md docs/ARCHITECTURE.md; do
    [ -f "$f" ] || err "missing required doc $f"
done

# 2. ...and be linked from the README.
for f in docs/FORMAT.md docs/ARCHITECTURE.md; do
    grep -qF "$f" README.md || err "README.md does not link $f"
done

# 3. Every --flag on a `flowzip ...` command line in the docs must be a
#    flag the binary actually parses (its USAGE string + parser live in
#    src/bin/flowzip.rs, so a plain grep catches removals/renames).
#    Only text *after* `flowzip` on a line counts (so cargo/python flags
#    on mixed lines don't trip it), plus the README's CLI flags table
#    (rows starting `| \`--`).
flags=$({
    grep -hoE 'flowzip [^`]*' README.md docs/*.md 2>/dev/null
    grep -hE '^\| `--' README.md docs/*.md 2>/dev/null
} | grep -oE -- '--[a-z][a-z-]*' | sort -u || true)
for flag in $flags; do
    grep -qF -- "$flag" src/bin/flowzip.rs ||
        err "docs reference CLI flag '$flag' unknown to src/bin/flowzip.rs"
done
#    ...and the other way round: the USAGE string is the parser's
#    allow-list, so every flag it names must be documented in the
#    README (flags table or a `flowzip ...` snippet) — a flag cannot be
#    dropped from the docs while the binary keeps accepting it.
readme_flags=$({
    grep -hoE 'flowzip [^`]*' README.md
    grep -hE '^\| `--' README.md
} | grep -oE -- '--[a-z][a-z-]*' | sort -u || true)
usage_flags=$(sed -n '/^const USAGE: &str = "/,/";$/p' src/bin/flowzip.rs |
    grep -oE -- '--[a-z][a-z-]*' | sort -u || true)
[ -n "$usage_flags" ] || err "could not find the USAGE string in src/bin/flowzip.rs"
for flag in $usage_flags; do
    grep -qxF -- "$flag" <<<"$readme_flags" ||
        err "CLI flag '$flag' is in USAGE but missing from README.md"
done

# 4. Backticked repo paths in docs/*.md must exist.
paths=$(grep -hoE '`(crates|src|tests|vendor|ci|docs)/[A-Za-z0-9_./-]+`' docs/*.md |
    tr -d '`' | sort -u || true)
for p in $paths; do
    [ -e "$p" ] || err "docs reference missing path '$p'"
done

# 5. Backticked CamelCase identifiers in docs/*.md must appear in the
#    workspace source (types/APIs renamed away should not linger in docs).
types=$(grep -hoE '`[A-Z][A-Za-z0-9]+`' docs/*.md | tr -d '`' | sort -u || true)
for t in $types; do
    grep -rqF "$t" --include='*.rs' crates src ||
        err "docs reference identifier '$t' not found in workspace source"
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK (flags: $(echo "$flags" | wc -w), paths: $(echo "$paths" | wc -w), identifiers: $(echo "$types" | wc -w))"
