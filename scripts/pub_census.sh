#!/usr/bin/env bash
# Standing census: every `pub` item and enum variant in the library crates
# and `src/` needs a caller in non-test code, or a line in
# scripts/pub_census.allow saying why it stays.
#
#   scripts/pub_census.sh        # prints orphans; exits 1 if any
#
# Items: `pub` fn / const / static / struct / enum / trait / type, with the
# impl type for methods, in crates/*/src and src/ (crates/compat is vendored
# shims and is not counted). Enum variants count only where they are
# constructed: a qualified `Enum::Variant` (or `Self::Variant` inside the
# enum's impl, or a bare name under `use Enum::*`) outside a pattern.
#
# Callers: crates/*/src (bins included), src/, examples/ and benchmark/src.
# `#[cfg(test)]` items and blocks, comments, string literals (but not the
# names in their `{name}` format arguments), `use` statements and a type's
# own impl headers do not count.
#
# Uses are matched by name. A name shared with another item (two `new`s,
# two `len`s) counts for both, so an unused item with a common name can
# hide behind a used one; see DESIGN.md §"Standing census".
#
# Allowlist lines: `<file> <item> <reason>`; `#` starts a comment. An
# entry whose item is no longer an orphan fails the census too.
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/pub_census.allow
max_allow=10

files=$(find crates/*/src src examples benchmark/src -name '*.rs' | sort)

# Pass 1: one record per line of cleaned code (C), per definition (D) and
# per glob import of a type's members (G).
# shellcheck disable=SC2086
records=$(awk -v q="'" "$(cat scripts/rust_lines.awk)"'
FNR == 1 {
    in_use = 0
    impl_t = ""; impl_d = -1; enum_n = ""; enum_d = -1
    isdef = (FILENAME !~ /^(examples|benchmark)\//)
}
{
    if (!code_line()) next
    if (in_use) { if (c ~ /;/) in_use = 0; next }
    if (c ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/) {
        if (match(c, /[A-Z][A-Za-z0-9_]*::\*/)) print "G\t" FILENAME "\t" substr(c, RSTART, RLENGTH - 3)
        if (c !~ /;/) in_use = 1
        next
    }

    if (c ~ /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/) {
        t = impl_split(c)
        if (opens > closes && depth == 0) { impl_t = t; impl_d = depth }
        c = impl_trait
    } else if (isdef && match(c, /^[ \t]*pub[ \t]+((const|unsafe|async|extern)[ \t]+)*(fn|const|static|struct|enum|trait|type|union)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        d = substr(c, RSTART, RLENGTH)
        sub(/^[ \t]*pub[ \t]+/, "", d)
        while (d ~ /^(const|unsafe|async|extern)[ \t]+(const|unsafe|async|extern|fn)[ \t]/) sub(/^[a-z]+[ \t]+/, "", d)
        kind = d; sub(/[ \t].*/, "", kind)
        name = d; sub(/^[a-z]+[ \t]+/, "", name)
        if (kind == "static") { sub(/^mut[ \t]+/, "", name) }
        qual = (impl_t != "" && depth > impl_d) ? impl_t "::" name : name
        print "D\t" FILENAME "\t" FNR "\t" kind "\t" qual "\t" name
        if (kind == "enum" && opens > closes) { enum_n = name; enum_d = depth }
    } else if (isdef && enum_n != "" && depth == enum_d + 1 && match(c, /^[ \t]*[A-Z][A-Za-z0-9_]*[ \t]*([,({=]|$)/)) {
        v = substr(c, RSTART, RLENGTH)
        gsub(/[^A-Za-z0-9_]/, "", v)
        print "D\t" FILENAME "\t" FNR "\tvariant\t" enum_n "::" v "\t" v
    }

    if (impl_t != "") gsub(/Self::/, impl_t "::", c)
    if (c ~ /[A-Za-z_]/) print "C\t" FILENAME "\t" FNR "\t" c "\t" impl_t

    depth += opens - closes
    if (impl_t != "" && depth <= impl_d) { impl_t = ""; impl_d = -1 }
    if (enum_n != "" && depth <= enum_d) { enum_n = ""; enum_d = -1 }
}
' $files)

# Pass 2: count uses, report orphans against the allowlist.
printf '%s\n' "$records" | awk -F'\t' -v allow="$allow" -v max_allow="$max_allow" '
$1 == "D" {
    nd++
    dfile[nd] = $2; dline[nd] = $3; dkind[nd] = $4; dqual[nd] = $5; dname[nd] = $6
    next
}
$1 == "G" { glob[$2] = glob[$2] " " $3; next }
$1 == "C" {
    s = $4
    # Left of "=>", of a `let` pattern'\''s " = ", or after `matches!(`,
    # a variant is matched, not constructed.
    pat_end = 0
    if (match(s, /=>/)) pat_end = RSTART
    else if (s ~ /(if|while)[ \t]+let[ \t]/ && match(s, / = /)) pat_end = RSTART
    if (s ~ /matches!\(/ || s ~ /^[ \t]*\|/) pat_end = length(s) + 1
    # Inside its own impl blocks a type does not use itself.
    self_t = $5
    prev = ""; prev_end = -1; pos = 1; rest = s
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        tok = substr(rest, RSTART, RLENGTH)
        start = pos + RSTART - 1
        # A name right after `fn`, `struct`, ... defines an item (any
        # item, pub or not, inherent or trait method): it is not a use.
        if (prev !~ /^(fn|struct|enum|trait|type|const|static|mod|union)$/ && tok != self_t) used[tok]++
        if (start >= pat_end) {
            if (prev != "" && substr(s, prev_end, start - prev_end) == "::") made[prev "::" tok]++
            n = split(glob[$2], gs, " ")
            for (k = 1; k <= n; k++) made[gs[k] "::" tok]++
        }
        prev = tok; prev_end = start + RLENGTH
        pos = start + RLENGTH
        rest = substr(rest, RSTART + RLENGTH)
    }
    next
}
END {
    while ((getline l < allow) > 0) {
        sub(/#.*/, "", l)
        if (l ~ /^[ \t]*$/) continue
        na++
        split(l, f, /[ \t]+/)
        key = f[1] " " f[2]
        if (l !~ /^[^ \t]+[ \t]+[^ \t]+[ \t]+[^ \t]/) {
            printf "allowlist line without a reason: %s\n", l
            bad = 1
        }
        allowed[key] = 1
    }
    if (na > max_allow) { printf "allowlist has %d lines; at most %d\n", na, max_allow; bad = 1 }
    for (i = 1; i <= nd; i++) {
        alive = (dkind[i] == "variant") ? (dqual[i] in made) : (dname[i] in used)
        key = dfile[i] " " dqual[i]
        if (alive) { if (key in allowed) stale[key] = 1; continue }
        if (key in allowed) { hit[key] = 1; continue }
        printf "orphan %s:%s %s %s\n", dfile[i], dline[i], dkind[i], dqual[i]
        orphans++
    }
    for (key in allowed) {
        if (key in stale) { printf "allowlisted item has a caller now: %s\n", key; bad = 1 }
        else if (!(key in hit)) { printf "allowlisted item not found: %s\n", key; bad = 1 }
    }
    printf "pub census: %d items, %d orphans, %d allowlisted\n", nd, orphans, na
    exit (orphans > 0 || bad) ? 1 : 0
}
'
