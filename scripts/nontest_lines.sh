#!/usr/bin/env bash
# Prints the net change in non-test lines between a git revision and the
# working tree.
#
# A non-test line is a line of a `crates/**/src/**/*.rs` file above that
# file's first top-level `#[cfg(test)]`. Files under `tests/` and
# `examples/` do not count. Untracked files count when git does not ignore
# them.
#
# Usage: scripts/nontest_lines.sh <base-rev>
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"

is_source() {
    grep -E '^crates/([^/]+/)+src/(.+/)?[^/]+\.rs$' || true
}

# Lines of one file read on stdin, up to its first top-level #[cfg(test)].
# awk reads to the end instead of exiting early: an early exit would kill the
# `git show` writing into the pipe with SIGPIPE, failing the script under
# pipefail.
count() {
    awk '/^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

before=0
while IFS= read -r path; do
    before=$((before + $(git show "$base:$path" | count)))
done < <(git ls-tree -r --name-only "$base" -- crates | is_source)

after=0
while IFS= read -r path; do
    [ -f "$path" ] && after=$((after + $(count < "$path")))
done < <(git ls-files --cached --others --exclude-standard -- crates | is_source | sort -u)

echo "non-test lines: $base $before, working tree $after"
echo "net change: $((after - before))"
