#!/usr/bin/env bash
# Docs-consistency gate, run by CI and locally:
#
#   ./scripts/check_docs.sh ./build/rrbtool
#
# 1. Every command `rrbtool help` lists must be documented in
#    docs/cli.md, and every command docs/cli.md's command table lists
#    must exist in the help text — adding a command without docs (or
#    documenting a command that was removed) fails the build.
# 2. Every --flag and batch-spec key `rrbtool help` prints must appear
#    in docs/cli.md, and every --flag docs/cli.md mentions must be one
#    `rrbtool help` prints (or --help itself). Help renders the flags and
#    keys from the option table (src/core/options.h), so this holds the
#    docs to the table.
# 3. Every relative markdown link in README.md and docs/*.md must
#    resolve to an existing file.
set -u
cd "$(dirname "$0")/.."

rrbtool="${1:-./build/rrbtool}"
if [ ! -x "$rrbtool" ]; then
    echo "error: $rrbtool is not executable (build rrbtool first)" >&2
    exit 1
fi

fail=0

# --- 1. help <-> docs/cli.md command cross-check -----------------------
# Help commands: first word of each two-space-indented line of the
# "commands:" block (continuation lines are indented deeper).
help_commands=$("$rrbtool" help |
    awk '/^commands:$/{f=1;next} f&&/^$/{exit} f&&/^  [a-z]/{print $1}')
if [ -z "$help_commands" ]; then
    echo "error: could not parse a command list out of '$rrbtool help'" >&2
    exit 1
fi

# Documented commands: the backticked first column of docs/cli.md's
# command table.
doc_commands=$(sed -n 's/^| `\([a-z][a-z-]*\)`.*/\1/p' docs/cli.md)

for cmd in $help_commands; do
    if ! printf '%s\n' "$doc_commands" | grep -qx -- "$cmd"; then
        echo "docs/cli.md: command '$cmd' (in 'rrbtool help') is not" \
             "in the command table" >&2
        fail=1
    fi
done
for cmd in $doc_commands; do
    if ! printf '%s\n' "$help_commands" | grep -qx -- "$cmd"; then
        echo "docs/cli.md: command table lists '$cmd', which 'rrbtool" \
             "help' does not know" >&2
        fail=1
    fi
done

# --- 2. help <-> docs/cli.md flag and batch-key cross-check ------------
help_text=$("$rrbtool" help)
help_flags=$(printf '%s\n' "$help_text" | grep -o -- '--[a-z][a-z-]*' |
    sort -u)
doc_flags=$(grep -o -- '--[a-z][a-z-]*' docs/cli.md | sort -u)
for flag in $help_flags; do
    if ! printf '%s\n' "$doc_flags" | grep -qx -- "$flag"; then
        echo "docs/cli.md: flag '$flag' (in 'rrbtool help') is not" \
             "documented" >&2
        fail=1
    fi
done
for flag in $doc_flags; do
    [ "$flag" = "--help" ] && continue  # `rrbtool --help` = `rrbtool help`
    if ! printf '%s\n' "$help_flags" | grep -qx -- "$flag"; then
        echo "docs/cli.md: documents '$flag', which 'rrbtool help' does" \
             "not list" >&2
        fail=1
    fi
done
# Batch-spec keys: the comma list inside the batch help's "(keys: ...)".
help_keys=$(printf '%s\n' "$help_text" | tr '\n' ' ' |
    sed -n 's/.*(keys: *\([^)]*\)).*/\1/p' | tr ',' '\n' | tr -d ' ')
if [ -z "$help_keys" ]; then
    echo "error: could not parse the batch-spec keys out of '$rrbtool" \
         "help'" >&2
    exit 1
fi
for key in $help_keys; do
    if ! grep -q -- "\`$key\`" docs/cli.md; then
        echo "docs/cli.md: batch-spec key '$key' (in 'rrbtool help') is" \
             "not documented" >&2
        fail=1
    fi
done

# --- 3. relative markdown links resolve --------------------------------
for file in README.md docs/*.md; do
    dir=$(dirname "$file")
    # Markdown link targets: the (...) of ](...), minus any #fragment.
    # External links (scheme://, mailto:) are out of scope.
    targets=$(grep -o '](.*)' "$file" | sed 's/^](//; s/).*//; s/#.*//' |
        grep -v '^$' | grep -v '://' | grep -v '^mailto:' | sort -u)
    for target in $targets; do
        if [ ! -e "$dir/$target" ]; then
            echo "$file: broken relative link -> $target" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs consistency check FAILED" >&2
    exit 1
fi
echo "docs consistency check passed:" \
     "$(printf '%s\n' "$help_commands" | wc -l) commands," \
     "$(printf '%s\n' "$help_flags" | wc -l) flags and" \
     "$(printf '%s\n' "$help_keys" | wc -l) batch keys cross-checked," \
     "links in README.md + docs/*.md resolve"
