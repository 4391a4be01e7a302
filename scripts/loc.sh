#!/usr/bin/env bash
# Production lines of Rust, counted the same way on every commit.
#
#   scripts/loc.sh [path ...]      (default: crates/*/src)
#
# Counts, per `.rs` file under each path (a file or a directory, searched
# recursively), the lines that are neither blank nor `//` comments, up to
# the file's first column-0 `#[cfg(test)]`: unit tests, which sit at the
# end of a file, do not count. Prints one `count path` line per file,
# sorted by path, then the total. Paths are taken relative to the current
# directory; run it from the repository root.
set -euo pipefail

[ $# -gt 0 ] || set -- crates/*/src
total=0
while IFS= read -r file; do
    n="$(awk '/^#\[cfg\(test\)\]/ { exit }
              /^[[:space:]]*$/ { next }
              /^[[:space:]]*\/\// { next }
              { n++ }
              END { print n + 0 }' "$file")"
    printf '%6d %s\n' "$n" "$file"
    total=$((total + n))
done < <(find "$@" -name '*.rs' -type f | LC_ALL=C sort)
printf '%6d total\n' "$total"
