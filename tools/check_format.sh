#!/usr/bin/env bash
# Format gate: clang-format --dry-run --Werror over every tracked C++ file.
# Without clang-format, the column limit of .clang-format is still checked
# over the same files, so over-long lines fail on every host.
#
# Exit codes: 0 clean, 1 violations, 77 clang-format unavailable and no line
# over the column limit (ctest's SKIP_RETURN_CODE — containers without the
# LLVM toolchain skip the full style check, not fail it).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# Tracked C++ sources only; fall back to find when not in a git checkout.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  files=$(git ls-files -- 'src/**/*.[ch]pp' 'tests/**/*.[ch]pp' \
          'bench/**/*.[ch]pp' 'examples/**/*.[ch]pp')
else
  files=$(find src tests bench examples -name '*.cpp' -o -name '*.hpp' 2>/dev/null)
fi
if [ -z "$files" ]; then
  echo "check_format: no C++ sources found" >&2
  exit 1
fi

clang_format=""
for cand in "${CLANG_FORMAT:-}" clang-format clang-format-18 clang-format-17 \
            clang-format-16; do
  if [ -n "$cand" ] && command -v "$cand" >/dev/null 2>&1; then
    clang_format="$cand"
    break
  fi
done
if [ -z "$clang_format" ]; then
  limit=$(awk -F: '$1 == "ColumnLimit" { print $2 + 0 }' .clang-format)
  if [ -z "$limit" ]; then
    echo "check_format: no ColumnLimit in .clang-format" >&2
    exit 1
  fi
  # Some awks count bytes, not characters: a multi-byte character then
  # counts more than once, which is stricter than clang-format, never looser.
  # shellcheck disable=SC2086
  long=$(awk -v limit="$limit" 'length > limit { print FILENAME ":" FNR }' $files)
  if [ -n "$long" ]; then
    echo "$long" >&2
    echo "check_format: $(echo "$long" | wc -l) lines over $limit columns" >&2
    exit 1
  fi
  echo "check_format: no line over $limit columns; clang-format not found on" \
       "PATH — skipping the full style check (77)"
  exit 77
fi

# shellcheck disable=SC2086
if "$clang_format" --dry-run --Werror $files; then
  echo "check_format: $(echo "$files" | wc -l) files clean"
  exit 0
else
  echo "check_format: formatting violations (run: $clang_format -i <files>)" >&2
  exit 1
fi
