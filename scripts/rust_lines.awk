# Rust source as code lines, shared by pub_census.sh and knob_census.sh
# (each prepends this text to its own awk program; the program sets
# `q` to a single quote with `-v q="'"`).
#
# For every input line, `code_line()` sets
#   c              the line with comments and string-literal contents
#                  removed (a literal becomes `""`; the names in its
#                  `{name}` format arguments are kept),
#   opens, closes  the `{` and `}` counts of `c`,
# and returns 0 when the line belongs to a `#[cfg(test)]` item or block,
# which neither census counts; it has then moved `depth` past the line.
# On 1 the caller reads `depth` as the brace depth before the line and
# adds `opens - closes` itself once done with it.

function clean(s,    out, i, n, ch, nx, j, k, body, hashes, close_at, fmt) {
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

function code_line() {
    c = clean($0)
    opens = count(c, "\\{"); closes = count(c, "\\}")
    if (skip) {
        depth += opens - closes
        if (opens > 0) skip_open = 1
        if ((skip_open && depth <= skip_d) || (!skip_open && c ~ /;/)) skip = 0
        return 0
    }
    if (c ~ /^[ \t]*#\[cfg\((all\()?test[,)]/) { pend = 1; return 0 }
    if (pend) {
        if (c ~ /^[ \t]*(#\[.*)?$/) return 0
        pend = 0; skip = 1; skip_d = depth; skip_open = (opens > 0)
        depth += opens - closes
        # A one-line field or variant ends at its comma.
        if ((skip_open && depth <= skip_d) || (!skip_open && c ~ /(;|,[ \t]*$)/)) skip = 0
        return 0
    }
    return 1
}

FNR == 1 { depth = 0; in_str = 0; in_block = 0; skip = 0; pend = 0 }
