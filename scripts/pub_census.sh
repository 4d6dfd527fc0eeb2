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
records=$(awk -v q="'" '
function clean(s,    out, i, n, ch, nx, j, body, hashes, close_at, fmt) {
    out = ""
    n = length(s)
    i = 1
    while (i <= n) {
        if (in_block) {
            j = index(substr(s, i), "*/")
            if (j == 0) return out
            i += j + 1; in_block = 0; continue
        }
        if (in_str) {
            # Inside a string literal: find its end, keep {name} arguments.
            if (raw_hashes >= 0) {
                close_at = "\"" substr("################", 1, raw_hashes)
                j = index(substr(s, i), close_at)
            } else {
                j = 0
                for (k = i; k <= n; k++) {
                    ch = substr(s, k, 1)
                    if (ch == "\\") { k++; continue }
                    if (ch == "\"") { j = k - i + 1; break }
                }
            }
            body = (j == 0) ? substr(s, i) : substr(s, i, j - 1)
            fmt = body
            while (match(fmt, /\{[A-Za-z_][A-Za-z0-9_]*[:}]/)) {
                out = out " " substr(fmt, RSTART + 1, RLENGTH - 2) " "
                fmt = substr(fmt, RSTART + RLENGTH)
            }
            if (j == 0) return out
            i += j + (raw_hashes > 0 ? raw_hashes : 0)
            in_str = 0
            out = out "\"\""
            continue
        }
        ch = substr(s, i, 1)
        nx = substr(s, i + 1, 1)
        if (ch == "/" && nx == "/") return out
        if (ch == "/" && nx == "*") { in_block = 1; i += 2; continue }
        if (ch == "\"") { in_str = 1; raw_hashes = -1; i++; continue }
        if ((ch == "r" || (ch == "b" && nx == "r")) && substr(out, length(out)) !~ /[A-Za-z0-9_]/) {
            j = (ch == "b") ? i + 2 : i + 1
            hashes = 0
            while (substr(s, j, 1) == "#") { hashes++; j++ }
            if (substr(s, j, 1) == "\"" && (hashes > 0 || j == i + 1 || (ch == "b" && j == i + 2))) {
                in_str = 1; raw_hashes = hashes; i = j + 1; continue
            }
        }
        if (ch == q) {
            # Char literal or lifetime.
            j = index(substr(s, i + 1, 6), q)
            if (j > 1) {
                body = substr(s, i + 1, j - 1)
                if (length(body) == 1 || substr(body, 1, 1) == "\\" || body !~ /[ -~]/) {
                    out = out q q; i += j + 1; continue
                }
            }
        }
        out = out ch
        i++
    }
    return out
}

function count(s, c,    t) { t = s; return gsub(c, "", t) }

# The self type of an impl header, and the header with it removed.
function impl_split(c,    rest, lt, k, ch, t) {
    rest = c
    sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", rest)
    if (substr(rest, 1, 1) == "<") {
        lt = 0
        for (k = 1; k <= length(rest); k++) {
            ch = substr(rest, k, 1)
            if (ch == "<") lt++
            if (ch == ">") { lt--; if (lt == 0) break }
        }
        rest = substr(rest, k + 1)
    }
    if (match(rest, / for /)) {
        impl_trait = substr(rest, 1, RSTART - 1)
        rest = substr(rest, RSTART + 5)
    } else {
        impl_trait = ""
    }
    sub(/^[ \t&]*/, "", rest)
    t = rest
    while (match(t, /^[A-Za-z_][A-Za-z0-9_]*::/)) t = substr(t, RLENGTH + 1)
    match(t, /^[A-Za-z_][A-Za-z0-9_]*/)
    return substr(t, RSTART, RLENGTH)
}

FNR == 1 {
    depth = 0; in_str = 0; in_block = 0; skip = 0; pend = 0; in_use = 0
    impl_t = ""; impl_d = -1; enum_n = ""; enum_d = -1
    isdef = (FILENAME !~ /^(examples|benchmark)\//)
}
{
    c = clean($0)
    opens = count(c, "\\{"); closes = count(c, "\\}")

    if (skip) {
        depth += opens - closes
        if (opens > 0) skip_open = 1
        if ((skip_open && depth <= skip_d) || (!skip_open && c ~ /;/)) skip = 0
        next
    }
    if (c ~ /^[ \t]*#\[cfg\((all\()?test[,)]/) { pend = 1; next }
    if (pend) {
        if (c ~ /^[ \t]*(#\[.*)?$/) next
        pend = 0; skip = 1; skip_d = depth; skip_open = (opens > 0)
        depth += opens - closes
        if ((skip_open && depth <= skip_d) || (!skip_open && c ~ /;/)) skip = 0
        next
    }
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
