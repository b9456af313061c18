#!/usr/bin/env bash
# Builds and tests every supported build configuration, each in its own
# tree next to build/ (the default RelWithDebInfo tree is left alone):
#
#   build-release/  -DCMAKE_BUILD_TYPE=Release         tier-1 ctest
#   build-noobs/    -DSPA_OBS=OFF                      tier-1 ctest
#   build-asan/     -DSPA_SANITIZE=address,undefined   ctest -L asan
#   build-tsan/     -DSPA_SANITIZE=thread              ctest -L tsan
#
# Tier-1 is every test not labelled tier2.  Every tree keeps the
# project's -Wall -Wextra -Werror, so a compiler warning fails its tree.
# Trees are configured once and then rebuilt incrementally; a cold
# sanitizer tree takes about ten minutes on four cores.
#
# Usage (from anywhere in the repository):
#
#   tools/build-matrix.sh                 # all four trees, in the order above
#   tools/build-matrix.sh asan tsan       # a subset, by name
#
# JOBS sets the build and ctest parallelism (default: online CPUs, at
# most 4).  Prints one line per tree ("build-<name> ok: ..." or
# "build-<name> FAIL at <step> ...") and exits non-zero at the first tree
# that fails to configure, build or pass; the tree's log is
# build-<name>/build-matrix.log.

set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)
JOBS=${JOBS:-$(n=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4); echo $((n < 4 ? n : 4)))}

# name|cmake flags|ctest flags
CONFIGS=(
  "release|-DCMAKE_BUILD_TYPE=Release|-LE tier2"
  "noobs|-DSPA_OBS=OFF|-LE tier2"
  "asan|-DSPA_SANITIZE=address,undefined|-L asan"
  "tsan|-DSPA_SANITIZE=thread|-L tsan"
)

want() {
  [ $# -eq 1 ] && return 0
  local name=$1
  shift
  for w in "$@"; do
    [ "$w" = "$name" ] && return 0
  done
  return 1
}

for cfg in "${CONFIGS[@]}"; do
  IFS='|' read -r name cmake_flags ctest_flags <<< "$cfg"
  want "$name" "$@" || continue
  tree="$ROOT/build-$name"
  log="$tree/build-matrix.log"
  mkdir -p "$tree"
  start=$(date +%s)
  step=configure
  # shellcheck disable=SC2086  # the flag strings are word lists
  if cmake -S "$ROOT" -B "$tree" $cmake_flags > "$log" 2>&1; then
    step=build
    if cmake --build "$tree" -j "$JOBS" >> "$log" 2>&1; then
      step="ctest $ctest_flags"
      (cd "$tree" && ctest $ctest_flags -j "$JOBS" --output-on-failure) \
        >> "$log" 2>&1 && step=
    fi
  fi
  secs=$(( $(date +%s) - start ))
  if [ -n "$step" ]; then
    echo "build-$name FAIL at $step (${secs} s; log: $log)"
    exit 1
  fi
  summary=$(grep -E "tests passed" "$log" | tail -n 1)
  echo "build-$name ok: $cmake_flags; $summary (${secs} s)"
done
