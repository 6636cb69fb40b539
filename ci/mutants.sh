#!/usr/bin/env bash
# Mutation table runner: which tests catch which fault.
#
#   ci/mutants.sh --check     every row's pattern occurs exactly once in its
#                             file, and its expected killer still exists (no
#                             build; `ci.sh` runs this)
#   ci/mutants.sh [ID...]     run the named rows of ci/mutants.txt (all by
#                             default) and print each mutant's killers
#
# A run never touches the working tree. It copies the tracked and untracked
# (not ignored) files into a throwaway directory, so an uncommitted change
# is measured as it stands, and builds there with one CARGO_TARGET_DIR for
# every mutant (default $TMPDIR/spec-mutants-target; an exported
# CARGO_TARGET_DIR wins; the copy is "$CARGO_TARGET_DIR.tree"). It first runs the unmutated suite,
# which must pass. Then, per row, it replaces the pattern with the
# replacement, checks that the workspace still compiles, and runs
#
#   cargo test --workspace --no-fail-fast
#
# under a 300 s timeout. Cargo's `Running` lines
# are kept (no `-q`): they name the test binary each failure belongs to.
# The proptest regression corpus is restored after every mutant, so the
# counterexample a killed property records does not replay for the next.
#
# Output, one line per mutant on stdout:
#   ID<TAB>killer killer ...     killers are `binary::test path`
#   ID<TAB>SURVIVED
#   ID<TAB>timeout killer ...    with whatever failed before the hang
# Progress and timings go to stderr. The exit status is non-zero when a
# mutant does not compile, or when the row's expected killer (column 5) is
# not among its killers. A timed-out mutant counts as caught only when its
# expected killer failed before the hang.
#
# Not part of tier-1 or of ci.sh's full run: a pass over the table takes
# about a minute per mutant on 2 vCPUs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
table=$root/ci/mutants.txt

# Rows: id, file, pattern, replacement, expected killer; `#` comments.
rows() {
    grep -v '^#' "$table" | grep -v '^[[:space:]]*$'
}

# Whether a killer `binary::path::test` still exists, without a build: its
# last segment occurs as a whole word (a `fn` or a matrix row name) in the
# crate whose unit-test binary the first segment names, or else in the
# integration test file of that name.
killer_exists() {
    local bin=${1%%::*} name=${1##*::}
    local -a where
    if [[ -d $root/crates/$bin/src ]]; then
        where=("$root/crates/$bin/src")
    else
        where=("$root"/tests/"$bin".rs "$root"/crates/*/tests/"$bin".rs)
    fi
    grep -rqsw -- "$name" "${where[@]}"
}

check_table() {
    local bad=0 id file pattern replacement killer extra n
    while IFS=$'\t' read -r id file pattern replacement killer extra; do
        if [[ -z $killer || -n $extra ]]; then
            echo "mutants.txt: row $id does not have exactly 5 tab-separated fields" >&2
            bad=1
            continue
        fi
        if [[ ! -f $root/$file ]]; then
            echo "mutants.txt: $id: no file $file" >&2
            bad=1
            continue
        fi
        n=$({ grep -oF -- "$pattern" "$root/$file" || true; } | wc -l)
        if [[ $n -ne 1 ]]; then
            echo "mutants.txt: $id: pattern occurs $n times in $file (must be once): $pattern" >&2
            bad=1
        fi
        if ! killer_exists "$killer"; then
            echo "mutants.txt: $id: expected killer $killer no longer exists" >&2
            bad=1
        fi
    done < <(rows)
    local dups
    dups=$(rows | cut -f1 | sort | uniq -d)
    if [[ -n $dups ]]; then
        echo "mutants.txt: duplicate ids: $dups" >&2
        bad=1
    fi
    return $bad
}

if [[ ${1:-} == --check ]]; then
    check_table
    echo "mutants.txt: $(rows | wc -l) rows, every pattern occurs once, every killer exists"
    exit 0
fi
check_table

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-${TMPDIR:-/tmp}/spec-mutants-target}
# Cargo fingerprints a workspace member by its path relative to the
# workspace and its files' mtimes. So the copy has one path per target dir
# (a build made elsewhere would keep a deleted tree's CARGO_MANIFEST_DIR),
# and its files are stamped now (`tar -m`): with the originals' mtimes, an
# earlier run's last mutant, built later than they were written, would
# pass for fresh.
work=$CARGO_TARGET_DIR.tree
rm -rf "$work"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf -) 2>/dev/null | tar -xmf - -C "$work"
unset SPEC_UPDATE_GOLDENS
limit=300
log=$work/.mutant.log

# Failing tests of one `cargo test` log, as `binary::test path`. A binary
# that ends without a `test result:` line (abort, hang) counts as
# `binary::<aborted>`.
killers() {
    awk '
        function close_bin() { if (bin != "" && !done) print bin "::<aborted>" }
        /^ *Running / {
            close_bin()
            bin = $NF; sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
            done = 0; next
        }
        /^ *Doc-tests / { close_bin(); bin = $2 "(doc)"; done = 0; next }
        /^test result:/ { done = 1; next }
        /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print bin "::" $0 }
        END { close_bin() }
    ' "$1" | sort -u | tr '\n' ' ' | sed 's/ $//'
}

cd "$work"
corpora() { find . -path ./target -prune -o -type d -name proptest-regressions -print; }
corpora | tar -cf "$work/.corpus.tar" -T -
restore_corpora() {
    corpora | xargs -r rm -rf
    tar -xf "$work/.corpus.tar"
}
echo "== unmutated suite (CARGO_TARGET_DIR=$CARGO_TARGET_DIR)" >&2
cargo test --workspace --no-run -q </dev/null >&2
if ! timeout "$limit" cargo test --workspace --no-fail-fast </dev/null >"$log" 2>&1; then
    echo "the unmutated suite fails; fix it before measuring: $(killers "$log")" >&2
    exit 1
fi

status=0
while IFS=$'\t' read -r id file pattern replacement killer; do
    if [[ $# -gt 0 ]] && ! printf '%s\n' "$@" | grep -qxF -- "$id"; then
        continue
    fi
    cp "$file" "$work/.orig"
    perl -0pi -e 'BEGIN { ($p, $r) = splice(@ARGV, 0, 2) } s/\Q$p\E/$r/' \
        -- "$pattern" "$replacement" "$file"
    start=$SECONDS
    if ! timeout "$limit" cargo test --workspace --no-run -q </dev/null >"$log" 2>&1; then
        echo -e "$id\tinvalid: does not compile"
        status=1
    else
        set +e
        timeout "$limit" cargo test --workspace --no-fail-fast </dev/null >"$log" 2>&1
        rc=$?
        set -e
        got=$(killers "$log")
        if [[ $rc -eq 124 ]]; then
            echo -e "$id\ttimeout${got:+ $got}"
        elif [[ -z $got ]]; then
            echo -e "$id\tSURVIVED"
        else
            echo -e "$id\t$got"
        fi
        if ! grep -qwF -- "$killer" <<<"$got"; then
            echo "$id: expected killer $killer missed" >&2
            status=1
        fi
    fi
    echo "$id: $((SECONDS - start)) s" >&2
    cp "$work/.orig" "$file"
    restore_corpora
done < <(rows)
exit $status
