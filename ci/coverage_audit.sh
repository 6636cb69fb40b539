#!/usr/bin/env bash
# Public-surface audit: enumerate every `pub` item of the eight product
# crates (and the root prelude) and ask two questions of each one.
#
#   used?    Does anything outside its own crate's source name it: another
#            crate (code, tests, examples, benches), a top-level test or
#            example, the perf ledger under benchmark/, or a doctest? A
#            `pub mod` counts as used only if something outside its crate
#            reaches into it by path (`nbody::forces`). A prelude name
#            counts as used if a file that imports the prelude, or the
#            crate-level doctest, names it.
#   tested?  Does any test name it: a test module, a tests/ file, or a
#            doctest? (Informational: shown by --list and in the table.)
#
# An item nothing outside its crate uses is deleted, narrowed
# (`pub(crate)`, private, `#[cfg(test)]`), or listed in
# ci/public_surface.allow as `crate::name  reason` — for the few that must
# stay public anyway, such as the type of a public field.
#
# Items: every `pub` fn, struct, enum, trait, type, const, static and mod,
# and every name in a `pub use`. A "declaration" is one such line (a
# multi-name `pub use` is one declaration). An item that carries its own
# `#[cfg(test)]` is not surface and is skipped.
#
# Test code is a `#[cfg(test)] mod` block: from a `#[cfg(test)]` line
# immediately followed by a `mod` line to the column-0 `}` that closes it
# (rustfmt's layout, which ci.sh enforces). A `#[cfg(test)]` on a single
# item or statement does not start one.
#
# The audit is name-based and deliberately cheap and dependency-free: a
# name is used if the word appears in the corpus outside `//` comment lines
# and string literals (doctest code inside doc comments counts), so a
# common name (`new`, `len`) is never flagged.
#
# Usage:
#   ci/coverage_audit.sh            # report flagged items; always exits 0
#   ci/coverage_audit.sh --strict   # exit 1 on a flagged item that is not
#                                   # allowlisted, or on a stale allowlist
#                                   # entry (no such item, or now used)
#   ci/coverage_audit.sh --list     # also print every item's verdict

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in "" | --strict | --list) ;; *)
  echo "usage: $0 [--strict | --list]" >&2
  exit 2
  ;;
esac

CRATES="desim netsim mpk speccore nbody workloads obs perfmodel"
ALLOW=ci/public_surface.allow

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# split PART FILE...: print one part of each Rust file, `//` comment lines
# dropped. PART is `prod` (outside test modules), `test` (inside them),
# `all`, or `doc` (the code inside ``` fences of `///` and `//!` comments).
split() {
  awk -v part="$1" '
    FNR == 1 { intest = 0; pending = 0; fence = 0 }
    pending {
      pending = 0
      if ($0 ~ /^[[:space:]]*(pub )?mod /) intest = 1
    }
    !intest && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1 }
    { t = intest; if (intest && /^}/) intest = 0 }
    /^[[:space:]]*\/\/[\/!]/ {
      body = $0
      sub(/^[[:space:]]*\/\/[\/!] ?/, "", body)
      if (body ~ /^[[:space:]]*```/) { fence = !fence; next }
      if (fence && part == "doc") print body
      next
    }
    /^[[:space:]]*\/\// { next }
    part == "all" || (part == "prod" && !t) || (part == "test" && t)
  ' "${@:2}"
}

# words: every identifier outside string literals, and every adjacent
# `a::b` pair of a path, with `a::{b, c::d}` groups expanded first (so
# `use nbody::{forces, …}` reaches `nbody::forces`). One sorted word list.
words() {
  awk '{ gsub(/"([^"\\]|\\.)*"/, "\"\""); s = s " " $0 }
    END {
      while (match(s, /[A-Za-z_][A-Za-z0-9_]*[[:space:]]*::[[:space:]]*[{][^{}]*[}]/)) {
        m = substr(s, RSTART, RLENGTH)
        p = m
        sub(/[[:space:]]*::.*/, "", p)
        body = m
        sub(/^[^{]*[{]/, "", body)
        sub(/[}]$/, "", body)
        n = split(body, parts, ",")
        out = ""
        for (i = 1; i <= n; i++) out = out " " p "::" parts[i]
        s = substr(s, 1, RSTART - 1) out " " substr(s, RSTART + RLENGTH)
      }
      print s
    }' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*([[:space:]]*::[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*' |
    awk '{ gsub(/[[:space:]]/, ""); n = split($0, s, "::")
           for (i = 1; i <= n; i++) { print s[i]; if (i < n) print s[i] "::" s[i + 1] } }' |
    sort -u
}

# items CRATE FILE...: `crate<TAB>name<TAB>kind<TAB>file:line`, one line per
# declared name, and one `crate<TAB>decl` line per declaration.
items() {
  awk -v crate="$1" '
    function flush(s, where,   body, parts, n, i, p, nm) {
      print crate "\tdecl"
      body = s
      sub(/^[[:space:]]*pub use /, "", body)
      sub(/;.*/, "", body)
      gsub(/[{}]/, ",", body)
      n = split(body, parts, ",")
      for (i = 1; i <= n; i++) {
        p = parts[i]
        gsub(/^[[:space:]]+|[[:space:]]+$/, "", p)
        if (p ~ / as /) { sub(/.* as /, "", p); nm = p }
        else { nm = p; sub(/.*::/, "", nm) }
        if (nm != "" && nm != "*" && nm != "self" && nm != "_")
          print crate "\t" nm "\tuse\t" where
      }
    }
    FNR == 1 { intest = 0; pending = 0; inuse = 0; cfgtest = 0 }
    pending {
      pending = 0
      if ($0 ~ /^[[:space:]]*(pub )?mod /) intest = 1
    }
    intest { if ($0 ~ /^}/) intest = 0; next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; cfgtest = 1; next }
    /^[[:space:]]*\/\// { next }
    inuse {
      buf = buf " " $0
      if ($0 ~ /;/) { flush(buf, where); inuse = 0 }
      next
    }
    /^[[:space:]]*#\[/ { next }
    match($0, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static|mod) +[A-Za-z_][A-Za-z0-9_]*/) {
      if (!cfgtest) {
        n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
        print crate "\tdecl"
        print crate "\t" w[n] "\t" w[n - 1] "\t" FILENAME ":" FNR
      }
    }
    /^[[:space:]]*pub use / && !cfgtest {
      where = FILENAME ":" FNR
      if ($0 ~ /;/) flush($0, where); else { buf = $0; inuse = 1 }
    }
    { cfgtest = 0 }
  ' "${@:2}"
}

# --- inventory ---------------------------------------------------------
for c in $CRATES; do
  items "$c" crates/"$c"/src/*.rs
done >"$TMP/raw"
# The root prelude: the `pub use` names inside `pub mod prelude { … }`.
awk '/^pub mod prelude/ { on = 1; print ""; next } on && /^}/ { on = 0 } { print on ? $0 : "" }' \
  src/lib.rs >"$TMP/prelude.rs"
items prelude "$TMP/prelude.rs" | sed "s#$TMP/prelude.rs#src/lib.rs#" >>"$TMP/raw"
# One item per crate and name; a declaration wins over its re-export.
awk -F'\t' '$2 != "decl"' "$TMP/raw" | sort -t$'\t' -k1,1 -k2,2 -k3,3 |
  sort -s -t$'\t' -k1,1 -k2,2 -u >"$TMP/items"

# --- corpora -----------------------------------------------------------
# Every Rust file that can use a crate's surface, as a word list each.
mapfile -t FILES < <(ls crates/*/src/*.rs crates/*/src/bin/*.rs crates/*/tests/*.rs \
  crates/*/examples/*.rs crates/*/benches/*.rs tests/*.rs examples/*.rs \
  benchmark/src/*.rs 2>/dev/null)
mkdir -p "$TMP/w"
for f in "${FILES[@]}"; do
  split all "$f" | words >"$TMP/w/${f//\//%}"
done
split doc "${FILES[@]}" src/lib.rs | words >"$TMP/doc"
{
  split test crates/*/src/*.rs
  split all tests/*.rs crates/*/tests/*.rs
  cat "$TMP/doc"
} | words >"$TMP/tested"
# A crate's corpus: every file outside its own src/, plus every doctest.
for c in $CRATES; do
  for f in "${FILES[@]}"; do
    case "$f" in crates/"$c"/src/*) ;; *) cat "$TMP/w/${f//\//%}" ;; esac
  done | cat - "$TMP/doc" | sort -u >"$TMP/ext.$c"
done
# The prelude's corpus: the files that import it, and the crate doctest.
for f in $(grep -lF 'speculative_computation::prelude' tests/*.rs examples/*.rs); do
  cat "$TMP/w/${f//\//%}"
done | cat - <(split doc src/lib.rs | words) | sort -u >"$TMP/ext.prelude"

# --- verdicts ----------------------------------------------------------
if [ -f "$ALLOW" ]; then grep -vE '^[[:space:]]*(#|$)' "$ALLOW" || true; fi |
  awk '{ print $1 }' | sort >"$TMP/allow"

while IFS=$'\t' read -r c name kind where; do
  if [ "$kind" = mod ]; then key="$c::$name"; else key="$name"; fi
  used=UNUSED
  grep -qxF -- "$key" "$TMP/ext.$c" && used=used
  tested=untested
  grep -qxF -- "$name" "$TMP/tested" && tested=tested
  allowed=no
  grep -qxF -- "$c::$name" "$TMP/allow" && allowed=yes
  printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$c" "$name" "$kind" "$where" "$used" "$tested" "$allowed"
done <"$TMP/items" >"$TMP/verdicts"

if [ "$MODE" = --list ]; then
  awk -F'\t' '{ a = ($7 == "yes") ? "allowed" : ""
                printf "  %-6s %-8s %-7s %-6s %s::%s  (%s)\n", $5, $6, a, $3, $1, $2, $4 }' "$TMP/verdicts"
  echo
fi
flagged=0
stale=0
while IFS=$'\t' read -r c name kind where used tested allowed; do
  [ "$used" = UNUSED ] && [ "$allowed" = no ] || continue
  echo "  UNUSED  $c::$name ($kind, $where)"
  flagged=$((flagged + 1))
done <"$TMP/verdicts"
while read -r entry; do
  v="$(awk -F'\t' -v e="$entry" '$1 "::" $2 == e { print $5 }' "$TMP/verdicts")"
  if [ -z "$v" ]; then
    echo "  STALE   $entry (allowlisted, but no such item)"
    stale=$((stale + 1))
  elif [ "$v" = used ]; then
    echo "  STALE   $entry (allowlisted, but now used)"
    stale=$((stale + 1))
  fi
done <"$TMP/allow"

echo
printf '%-10s %6s %6s %6s %8s %8s %9s\n' crate decls items used allowed flagged untested
for c in $CRATES prelude; do
  awk -F'\t' -v c="$c" '
    $1 == c && $2 == "decl" { d++ }
    END { printf "%s\t%d\n", c, d }' "$TMP/raw"
done >"$TMP/decls"
awk -F'\t' '
  NR == FNR { d[$1] = $2; order[++k] = $1; next }
  { n[$1]++; if ($5 == "used") u[$1]++; else if ($7 == "yes") a[$1]++; else f[$1]++
    if ($6 == "untested") t[$1]++ }
  END {
    for (i = 1; i <= k; i++) {
      c = order[i]
      printf "%-10s %6d %6d %6d %8d %8d %9d\n", c, d[c], n[c], u[c], a[c], f[c], t[c]
      if (c != "prelude") { td += d[c]; tn += n[c] }
    }
    printf "%-10s %6d %6d   (the eight crates)\n", "total", td, tn
  }' "$TMP/decls" "$TMP/verdicts"
echo "allowlist: $(wc -l <"$TMP/allow") entries in $ALLOW"

if [ "$flagged" -gt 0 ] || [ "$stale" -gt 0 ]; then
  echo "surface audit: $flagged unused, $stale stale allowlist entries" \
    "(delete, narrow, or allowlist each with a reason)"
  [ "$MODE" = --strict ] && exit 1
fi
exit 0
