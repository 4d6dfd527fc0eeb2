//! Progress & diagnostics channel — stderr, never stdout.
//!
//! Experiment binaries print machine-parseable result tables on stdout;
//! everything human-facing (progress, timing, environment notes) must go
//! through here so `adcomp_table2 > results.txt` stays clean and the CI
//! determinism diff compares tables, not progress chatter.

use std::fmt;
use std::io::Write as _;

/// Writes one progress line to stderr. Prefer the
/// [`progress!`](crate::progress) macro.
pub fn progress_args(args: fmt::Arguments<'_>) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "[adcomp] {args}");
}

/// `progress!("cell {}/{} done", i, n)` — formatted progress to stderr.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::diag::progress_args(::std::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn progress_macro_compiles_and_runs() {
        // Output goes to stderr; we only assert it does not panic.
        crate::progress!("unit test {} of {}", 1, 1);
    }
}
