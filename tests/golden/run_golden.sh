#!/bin/sh
# Golden stdout corpus for rrbtool.
#
#   run_golden.sh RRBTOOL GOLDEN_DIR           compare against expected.txt
#   run_golden.sh RRBTOOL GOLDEN_DIR --update  rewrite expected.txt
#
# Runs every case of GOLDEN_DIR/cases.txt in order inside one fresh
# scratch directory and records, per case, its exit code and its stdout
# byte for byte (stderr is not part of the contract). The transcript
# must equal GOLDEN_DIR/expected.txt exactly.
set -u
rrbtool=$1
golden=$2
mode=${3:-check}

work=$(mktemp -d "${TMPDIR:-/tmp}/rrb-golden.XXXXXX") || exit 1
trap 'rm -rf "$work"' EXIT
transcript=$work/transcript.txt
: > "$transcript"

while IFS= read -r line || [ -n "$line" ]; do
    case $line in
        '' | '#'*) continue ;;
        '$ '*)
            step=$(printf '%s\n' "${line#\$ }" | sed "s|GOLDEN_DIR|$golden|g")
            (cd "$work" && sh -c "$step") || {
                echo "golden: setup step failed: $step" >&2
                exit 1
            }
            continue ;;
        '% '*)
            set -f
            # shellcheck disable=SC2086
            set -- ${line#% }
            set +f
            name=$1
            shift
            (cd "$work" && "$@") > "$work/case.out" 2> /dev/null
            code=$?
            {
                printf '### %s (exit %s)\n' "$name" "$code"
                cat "$work/case.out"
            } >> "$transcript"
            continue ;;
    esac
    # NAME [VAR=VALUE ...] ARGS... — word-split on purpose: no case
    # argument contains whitespace.
    set -f
    # shellcheck disable=SC2086
    set -- $line
    set +f
    name=$1
    shift
    vars=
    while [ $# -gt 0 ]; do
        case $1 in
            *=*) vars="$vars $1"; shift ;;
            *) break ;;
        esac
    done
    out=$work/case.out
    # shellcheck disable=SC2086
    (cd "$work" && env $vars "$rrbtool" "$@") > "$out" 2> /dev/null
    code=$?
    {
        printf '### %s (exit %s)\n' "$name" "$code"
        cat "$out"
    } >> "$transcript"
done < "$golden/cases.txt"

if [ "$mode" = "--update" ]; then
    cp "$transcript" "$golden/expected.txt"
    echo "golden: wrote $golden/expected.txt"
    exit 0
fi
if diff -u "$golden/expected.txt" "$transcript"; then
    echo "golden: $(grep -c '^### ' "$transcript") cases byte-identical"
    exit 0
fi
echo "golden: stdout or exit codes differ from $golden/expected.txt" >&2
exit 1
