#!/bin/sh
# The simplicity metric CHANGES.md quotes: non-test Rust lines in crates/*/src.
# Per file, the lines before the first column-0 `#[cfg(test)]`, less blank
# lines and `//` comment lines (doc comments included). The vendored shims
# under crates/shims are not counted. Prints the total; `-v` adds per-crate
# counts.
set -eu
cd "$(dirname "$0")/.."
find crates -path crates/shims -prune -o -path 'crates/*/src/*' -name '*.rs' -print |
    sort |
    xargs awk -v verbose="${1:-}" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { split(FILENAME, part, "/"); per_crate[part[2]]++; total++ }
        END {
            if (verbose == "-v")
                for (crate in per_crate) printf "%6d  %s\n", per_crate[crate], crate | "sort -k2"
            close("sort -k2")
            print total
        }'
