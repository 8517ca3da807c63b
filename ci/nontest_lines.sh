#!/usr/bin/env bash
# Counts non-test source lines: for every crates/*/src/**/*.rs, the lines
# before the first line that begins `#[cfg(test)]` (the whole file when it
# has none). Prints one line per file, then the crates' total; the root
# `src/lib.rs` (no test module) is reported separately.
#
# Usage: ci/nontest_lines.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
while IFS= read -r f; do
    n=$(count "$f")
    printf '%7d %s\n' "$n" "$f"
    total=$((total + n))
done < <(find crates/*/src -name '*.rs' | LC_ALL=C sort)

root=$(count src/lib.rs)
printf '%7d total (crates/*/src)\n' "$total"
printf '%7d src/lib.rs (root crate, counted separately)\n' "$root"
