#!/usr/bin/env bash
# Run clang-tidy (profile: .clang-tidy at the repo root) over the
# library sources, using the compile database the normal build
# exports (CMAKE_EXPORT_COMPILE_COMMANDS=ON in CMakeLists.txt).
#
#   scripts/lint.sh                # lint src/core, src/circuit,
#                                  # src/service, src/fleet,
#                                  # src/analysis
#   scripts/lint.sh src/store      # lint specific director(y/ies)
#
# Exit status: 0 when clang-tidy ran and found nothing, 77 when
# clang-tidy is not installed (nothing ran: callers report the leg as
# skipped, never as passed), any other non-zero status on findings or
# errors.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

TIDY="${CLANG_TIDY:-}"
if [ -z "$TIDY" ]; then
    for candidate in clang-tidy clang-tidy-18 clang-tidy-17 \
        clang-tidy-16 clang-tidy-15 clang-tidy-14; do
        if command -v "$candidate" >/dev/null 2>&1; then
            TIDY="$candidate"
            break
        fi
    done
fi
if [ -z "$TIDY" ]; then
    echo "lint: clang-tidy not found on PATH (set CLANG_TIDY to" \
        "override); skipped, nothing was checked" >&2
    exit 77
fi

if [ ! -f build/compile_commands.json ]; then
    echo "== lint: configuring build/ for compile_commands.json =="
    cmake -B build -S . >/dev/null
fi

DIRS=("$@")
if [ "${#DIRS[@]}" -eq 0 ]; then
    DIRS=(src/core src/circuit src/service src/fleet src/analysis)
fi

FILES=()
for dir in "${DIRS[@]}"; do
    while IFS= read -r f; do
        FILES+=("$f")
    done < <(find "$dir" -name '*.cpp' | sort)
done
if [ "${#FILES[@]}" -eq 0 ]; then
    echo "lint: no sources under: ${DIRS[*]}" >&2
    exit 2
fi

echo "== lint: $TIDY over ${#FILES[@]} files (${DIRS[*]}) =="
STATUS=0
printf '%s\n' "${FILES[@]}" |
    xargs -P "$JOBS" -n 4 "$TIDY" -p build --quiet || STATUS=$?

if [ "$STATUS" -eq 0 ]; then
    echo "lint: clean"
else
    echo "lint: findings above (exit $STATUS)" >&2
fi
exit "$STATUS"
