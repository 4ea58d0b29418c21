#!/usr/bin/env bash
# Archive bench results as JSON at the repo root.
#
# Kernel mode (default):
#   tools/bench_to_json.sh [build-dir] [output-file] [min-time] [repetitions]
# runs the kernel microbenchmarks across every available dispatch target
# and writes google-benchmark JSON. The kernels binary registers a
# <scalar>/<avx2>/<avx512> variant of each kernel-table entry at startup,
# so a single run records the full dispatch comparison (e.g.
# BM_GemvFp32<avx2>/65536 vs BM_GemvFp32<avx512>/65536). With
# repetitions > 1 (default 1, a quick single run) the archive holds each
# benchmark's mean/median/stddev/cv aggregates instead of single runs;
# archive with at least 5 so keep/drop decisions rest on medians.
#
# Metrics mode:
#   tools/bench_to_json.sh --metrics <binary> [output-file] [args...]
# runs any bench/tool binary with --metrics-json= pointing at the output
# file, then validates the document (schema, counter invariants) with
# tools/check_metrics.py. Example:
#   tools/bench_to_json.sh --metrics build/bench/fig13_performance \
#       METRICS_fig13.json --backend=enmc
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--metrics" ]; then
    shift
    bench_bin="${1:?usage: bench_to_json.sh --metrics <binary> [out] [args...]}"
    shift
    out_file="${1:-$repo_root/METRICS_$(basename "$bench_bin").json}"
    [ "$#" -gt 0 ] && shift
    if [ ! -x "$bench_bin" ]; then
        echo "error: $bench_bin not built" >&2
        exit 1
    fi
    "$bench_bin" "--metrics-json=$out_file" "$@"
    python3 "$repo_root/tools/check_metrics.py" "$out_file"
    echo "wrote $out_file" >&2
    exit 0
fi

build_dir="${1:-$repo_root/build}"
out_file="${2:-$repo_root/BENCH_kernels.json}"
min_time="${3:-0.1}"
repetitions="${4:-1}"
# Repetitions run in random interleaved order, so a phase of host
# slowdown spreads across every benchmark instead of biasing whichever
# ran during it.
multi=$([ "$repetitions" -gt 1 ] && echo true || echo false)

bench_bin="$build_dir/bench/kernels"
if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake --build $build_dir --target kernels)" >&2
    exit 1
fi

"$bench_bin" \
    --benchmark_format=json \
    --benchmark_min_time="$min_time" \
    --benchmark_repetitions="$repetitions" \
    --benchmark_report_aggregates_only="$multi" \
    --benchmark_enable_random_interleaving="$multi" \
    --benchmark_filter='BM_Dot|BM_Axpy|BM_AbsMax|BM_Gemv|BM_SparseProjection|BM_Quantize|BM_TopK|BM_MergeTopK|BM_ThresholdFilter' \
    > "$out_file"

# Debug-build numbers are meaningless as an archive; refuse them. The
# stock "library_build_type" field only describes the google-benchmark
# library (distro packages report "debug"), so the kernels binary
# records its own compile mode as "enmc_build_type".
if ! grep -q '"enmc_build_type": "release"' "$out_file"; then
    rm -f "$out_file"
    echo "error: $bench_bin is not a release build; rebuild with" \
         "-DCMAKE_BUILD_TYPE=Release before archiving" >&2
    exit 1
fi

echo "wrote $out_file" >&2
