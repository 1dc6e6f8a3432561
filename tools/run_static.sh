#!/usr/bin/env bash
# One-shot static-analysis / hardened-lane driver (DESIGN.md §14).
#
# Usage: tools/run_static.sh [lane...]
#   lanes: lint werror asan ubsan tsan tidy   (default: lint werror)
#
# Each lane configures an isolated build tree under build-static/ so the
# developer's default build/ is never reconfigured. `lint` is fast
# (seconds once built); the sanitizer lanes rebuild the world and run the
# relevant test tiers, so they are opt-in. `tidy` requires clang-tidy on
# PATH and uses the repo .clang-tidy config (gated behind -DS3D_TIDY).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
lanes=("$@")
[ ${#lanes[@]} -eq 0 ] && lanes=(lint werror)

build() { # name cmake-args...
  local name="$1"; shift
  dir="$root/build-static/$name"
  cmake -B "$dir" -S "$root" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
}

for lane in "${lanes[@]}"; do
  echo "== lane: $lane =="
  case "$lane" in
    lint)
      # The determinism lint + its rule-efficacy suite: ctest -L lint.
      build lint -DS3D_WERROR=ON
      (cd "$dir" && ctest -L lint --output-on-failure)
      ;;
    werror)
      # Whole tree at -Wall -Wextra -Werror; compiling IS the test.
      build werror -DS3D_WERROR=ON
      echo "werror: clean"
      ;;
    asan)
      # AddressSanitizer + LeakSanitizer over the unit-ish tiers, plus
      # passes: the RHS plan and the in-pass tripwires.
      build asan -DS3D_SANITIZE=address -DS3D_WERROR=ON
      (cd "$dir" && ASAN_OPTIONS=detect_leaks=1 \
        ctest -L "resilience|equivalence|checkpoint|adaptive|lint|plugin|passes" \
              --output-on-failure)
      ;;
    ubsan)
      # UBSan aborts on the first diagnosed op (-fno-sanitize-recover).
      # The golden-record comparisons skip themselves under any sanitizer
      # (S3D_SANITIZER_LANE): committed goldens pin the default build's FP
      # codegen, which instrumentation perturbs; every within-build
      # bitwise contract still runs at full strength.
      build ubsan -DS3D_SANITIZE=undefined -DS3D_WERROR=ON
      (cd "$dir" && ctest -L "resilience|equivalence|passes|lint|plugin" \
              --output-on-failure)
      ;;
    tsan)
      build tsan -DS3D_SANITIZE=thread -DS3D_WERROR=ON
      (cd "$dir" && ctest -L "resilience|equivalence|checkpoint|adaptive|plugin" \
              -E "^Golden" --output-on-failure)
      ;;
    tidy)
      command -v clang-tidy >/dev/null ||
        { echo "tidy: clang-tidy not on PATH; skipping" >&2; exit 3; }
      build tidy -DS3D_TIDY=ON
      echo "tidy: clean"
      ;;
    *)
      echo "unknown lane '$lane' (lint werror asan ubsan tsan tidy)" >&2
      exit 2
      ;;
  esac
done
echo "run_static: all lanes passed"
