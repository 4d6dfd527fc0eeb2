#!/usr/bin/env bash
# Standing census of settings: every knob a caller can turn needs a line in
# scripts/knob_census.allow naming a user that turns it.
#
#   scripts/knob_census.sh       # prints unlisted knobs; exits 1 if any
#
# Knobs, outside `#[cfg(test)]` code and comments:
#   flag    a long CLI flag, `"--name"` as a whole string literal, of
#           `adcomp` (src/bin), the bench binaries (crates/bench/src;
#           `bench:` are the flags every one of them takes) and the
#           examples; named `<binary>:--name`;
#   env     an `ADCOMP_*` environment variable read in crates/*/src, src/
#           or examples/;
#   setter  a `pub fn set_*` or `pub fn with_*`, named `Type::fn`;
#   field   a `pub` field of a `pub struct` named `*Config`, `*Options` or
#           `Executor`, named `Type::field`.
#
# Allowlist lines: `<kind> <name> <user> <reason>`; `#` starts a comment.
# The user is the file outside tests/ where the knob gets a value other
# than its default: the CLI (src/bin/adcomp.rs), a bench binary, an
# example, the net soak, the library code that sets it, CI
# (.github/workflows/ci.yml), the benchmark (benchmark/src/...), or a
# README recipe or EXPERIMENTS.md run that passes it. The file must exist
# and name the knob. A knob kept with no such user says `none` and why,
# on at most three lines.
# The census fails on an unlisted knob, on a line whose knob is gone, on
# a user that does not name its knob, and on finding no knob of some kind
# (a sign the scan itself broke).
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/knob_census.allow
max_none=3

files=$(find crates/*/src src examples -name '*.rs' | sort)

# Pass 1: one record per knob: kind, name, where.
# shellcheck disable=SC2086
knobs=$(awk -v q="'" "$(cat scripts/rust_lines.awk)"'
FNR == 1 {
    impl_t = ""; impl_d = -1; struct_n = ""; struct_d = -1
    bin = FILENAME; sub(/.*\//, "", bin); sub(/\.rs$/, "", bin)
    if (FILENAME == "crates/bench/src/lib.rs") bin = "bench"
    has_flags = (FILENAME ~ /^(src\/bin|crates\/bench\/src|examples)\//)
}
function knob(kind, name) { print kind "\t" name "\t" FILENAME ":" FNR }
{
    if (!code_line()) next

    # Flags and env vars are string literals: read them off the raw line
    # when the cleaned one still holds a literal.
    if (c ~ /""/) {
        s = $0
        while (has_flags && match(s, /"--[a-z][a-z0-9-]*"/)) {
            knob("flag", bin ":" substr(s, RSTART + 1, RLENGTH - 2))
            s = substr(s, RSTART + RLENGTH)
        }
        s = $0
        while (match(s, /var(_os)?\("ADCOMP_[A-Z0-9_]+"\)/)) {
            v = substr(s, RSTART, RLENGTH)
            sub(/^[^"]*"/, "", v); sub(/".*/, "", v)
            knob("env", v)
            s = substr(s, RSTART + RLENGTH)
        }
    }

    if (c ~ /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/) {
        t = impl_split(c)
        if (opens > closes && depth == 0) { impl_t = t; impl_d = depth }
    } else if (impl_t != "" && match(c, /^[ \t]*pub[ \t]+((const|unsafe)[ \t]+)*fn[ \t]+(set|with)_[a-z0-9_]+/)) {
        f = substr(c, RSTART, RLENGTH); sub(/.*fn[ \t]+/, "", f)
        knob("setter", impl_t "::" f)
    } else if (match(c, /^[ \t]*pub[ \t]+struct[ \t]+[A-Za-z0-9_]+/)) {
        n = substr(c, RSTART, RLENGTH); sub(/.*struct[ \t]+/, "", n)
        if ((n ~ /(Config|Options)$/ || n == "Executor") && opens > closes) { struct_n = n; struct_d = depth }
    } else if (struct_n != "" && depth == struct_d + 1 && match(c, /^[ \t]*pub[ \t]+[a-z_][a-z0-9_]*[ \t]*:/)) {
        f = substr(c, RSTART, RLENGTH); sub(/^[ \t]*pub[ \t]+/, "", f); sub(/[ \t]*:$/, "", f)
        knob("field", struct_n "::" f)
    }

    depth += opens - closes
    if (impl_t != "" && depth <= impl_d) { impl_t = ""; impl_d = -1 }
    if (struct_n != "" && depth <= struct_d) { struct_n = ""; struct_d = -1 }
}
' $files)

# Pass 2: every knob against the allowlist, every allowlist line against
# the knobs and its user file.
printf '%s\n' "$knobs" | awk -F'\t' -v allow="$allow" -v max_none="$max_none" '
{
    key = $1 " " $2
    if (!(key in where)) { order[++n] = key; kinds[$1]++ }
    where[key] = where[key] (where[key] == "" ? "" : ", ") $3
}
function mentions(path, word,    line, found) {
    found = 0
    while ((getline line < path) > 0) if (index(line, word)) found = 1
    close(path)
    return found
}
END {
    while ((getline l < allow) > 0) {
        sub(/#.*/, "", l)
        if (l ~ /^[ \t]*$/) continue
        split(l, f, /[ \t]+/)
        key = f[1] " " f[2]
        if (l !~ /^[^ \t]+[ \t]+[^ \t]+[ \t]+[^ \t]+[ \t]+[^ \t]/) {
            printf "allowlist line without a user and a reason: %s\n", l; bad = 1; continue
        }
        if (key in allowed) { printf "allowlist line repeated: %s\n", key; bad = 1 }
        allowed[key] = 1
        if (!(key in where)) { printf "allowlisted knob not found: %s\n", key; bad = 1; continue }
        # The bare name: the flag, the env var, the fn or the field.
        word = f[2]; sub(/.*:/, "", word)
        user = f[3]
        if (user == "none") {
            nnone++
        } else if (user ~ /^tests\// || (getline line < user) <= 0) {
            printf "%s: user %s is not a readable non-test file\n", key, user; bad = 1
        } else {
            close(user)
            if (!mentions(user, word)) { printf "%s: user %s does not name %s\n", key, user, word; bad = 1 }
        }
    }
    for (i = 1; i <= n; i++) {
        if (!(order[i] in allowed)) { printf "unlisted knob %s (%s)\n", order[i], where[order[i]]; unlisted++ }
    }
    split("flag env setter field", all, " ")
    line = ""
    for (k = 1; k <= 4; k++) {
        line = line sprintf("%s%d %s", k > 1 ? ", " : "", kinds[all[k]] + 0, all[k])
        if (!kinds[all[k]]) { printf "no %s knob found: the scan is broken\n", all[k]; bad = 1 }
    }
    if (nnone > max_none) { printf "%d knobs kept without a user; at most %d\n", nnone, max_none; bad = 1 }
    printf "knob census: %d knobs (%s), %d unlisted, %d kept without a user\n", n, line, unlisted, nnone
    exit (unlisted > 0 || bad) ? 1 : 0
}
'
