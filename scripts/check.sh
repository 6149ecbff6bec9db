#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
# Usage:
#   scripts/check.sh                 # plain Release build in build/
#   scripts/check.sh address         # ASan build in build-asan/
#   scripts/check.sh undefined       # UBSan build in build-ubsan/
#   scripts/check.sh thread          # TSan build in build-tsan/
#   scripts/check.sh obs             # observability gate: instrumented
#                                    # suite under TSan + overhead bench
#   scripts/check.sh fault           # resilience gate: fault/degradation
#                                    # suite under TSan + quick fault bench
#   scripts/check.sh perf            # batched-derouting and weather-
#                                    # window speedup gates: Release build
#                                    # + quick-scale bench_micro_derouting,
#                                    # then bench_micro_eis (each fails
#                                    # when its fast path breaks parity or
#                                    # misses its floor; both always run
#                                    # and the script exits 1 if either
#                                    # failed)
#   scripts/check.sh graph           # compact graph core gate: graph /
#                                    # snapshot / generator suites under
#                                    # ASan and UBSan, then the asserting
#                                    # bench_micro_graph (layout >= 1.3x,
#                                    # snapshot load >= 10x; emits
#                                    # BENCH_graph.json)
#   scripts/check.sh simd            # filter/score hot-path gate: the
#                                    # score kernel / ranking / parity
#                                    # suites under ASan and UBSan, then
#                                    # the asserting bench_micro_score
#                                    # (pruned columnar vs unpruned
#                                    # per-candidate bit parity on all
#                                    # spatial backends, the bound
#                                    # stage's scored-share ceiling +
#                                    # SoA speedup floor; emits
#                                    # BENCH_score.json)
#   scripts/check.sh serve           # fleet-serving gate: epoch /
#                                    # corridor / server / EIS column
#                                    # suites under TSan, then the
#                                    # asserting bench_server_throughput
#                                    # (fleet-trace parity, corridor
#                                    # hit-rate and QPS scaling floors;
#                                    # emits BENCH_server.json)
#   scripts/check.sh bench           # serving-benchmark contract gate:
#                                    # perfbench's stream-digest test,
#                                    # then every workload for 3 s on
#                                    # seed 1 at --trace 0 and --trace 1;
#                                    # fails unless each run reports
#                                    # "correct": true, 0 failed requests
#                                    # and the pinned seed-1 table digest
#                                    # (builds under .bench_build/)
#   scripts/check.sh lint            # orphan-header check (fails when a
#                                    # src/ header is included by no file
#                                    # in src/, tools/, bench/, examples/
#                                    # or perfbench/ but its own .cc),
#                                    # then clang-tidy over src/, tools/,
#                                    # and the asserting bench gates
#                                    # (skips with exit 0 when clang-tidy
#                                    # is absent)
#
# Extra arguments after the sanitizer are forwarded to ctest, e.g.
#   scripts/check.sh address -R QueryContext

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitize="${1:-}"
obs_gate=""
fault_gate=""
serve_gate=""
case "${sanitize}" in
  address|undefined|thread) shift ;;
  serve)
    # Fleet serving on one server: the WorldEpochs Dekker pin/publish
    # protocol, the sharded corridor cache, the EIS column stores' claim /
    # fetch / publish protocol, and the worker pool sharing them. Run those
    # suites under TSan, then hold the parity / hit-rate / scaling floors
    # with the asserting bench from a plain Release tree (sanitized timings
    # are meaningless).
    shift
    sanitize="thread"
    serve_gate=1
    set -- -R 'WorldEpochs|Corridor|OfferingServer|ForecastColumns|EstimateBatch|QueryContext' "$@"
    ;;
  obs)
    # The metrics hot path is relaxed atomics shared across worker
    # threads; run every test that exercises it under TSan, then hold the
    # instrumentation to its overhead budget with the asserting bench.
    shift
    sanitize="thread"
    obs_gate=1
    set -- -R 'Metrics|Statsz|ForecastColumns|EstimateBatch|BoundedQueue|OfferingServer|InformationServer|QueryContext|Continuous' "$@"
    ;;
  fault)
    # The resilience stack (fault injector, retry state, breakers, stale
    # cache reads) is exactly the code that runs concurrently on every
    # worker during an upstream outage; run its tests under TSan, then a
    # quick deterministic fault sweep from the plain tree.
    shift
    sanitize="thread"
    fault_gate=1
    set -- -R 'Resilien|FaultInjector|CircuitBreaker|RetryPolicy|ScopedRequestDeadline|Degrad|ForecastColumns|EstimateBatch|OfferingServer|InformationServer' "$@"
    ;;
  perf)
    # Performance regressions in the refinement phase are contract breaks,
    # not noise: the gate binary exits 1 when ExactBatch is no longer
    # bit-identical to per-candidate search or when the batched path drops
    # below its 2x floor at >= 16 targets; bench_micro_eis exits 1 when a cold
    # forecast batch priced one weather window per target bucket is no
    # longer bit-identical to per-charger pricing or drops below its 2x
    # floor. Both gates always run, so a failure in one never hides the
    # other's verdict; the script fails if either does. Timing wants a
    # plain Release tree.
    shift
    build_dir="${repo_root}/build"
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
    cmake --build "${build_dir}" -j "$(nproc)" \
      --target bench_micro_derouting bench_micro_eis
    status=0
    (cd "${build_dir}/bench" && ./bench_micro_derouting --quick "$@") ||
      { echo "check.sh perf: bench_micro_derouting FAILED"; status=1; }
    (cd "${build_dir}/bench" && ./bench_micro_eis --quick) ||
      { echo "check.sh perf: bench_micro_eis FAILED"; status=1; }
    echo "check.sh perf: BENCH_*.json artifacts land in build/bench/ and" \
         "are untracked; copy numbers into EXPERIMENTS.md when they move."
    exit "${status}"
    ;;
  graph)
    # The graph core is raw spans over mmap-ed bytes plus hand-rolled
    # streaming CSR construction — exactly where out-of-bounds reads and
    # misaligned loads would live. Run the graph, snapshot, generator, and
    # search suites under both ASan and UBSan, then hold the inlined-layout
    # and snapshot-load floors with the asserting bench from a plain
    # Release tree (sanitized timings are meaningless).
    shift
    graph_filter='RoadNetwork|GraphBuilder|GraphCounts|ChunkedBuild|Snapshot|Grid|Radial|Corridor|Geometric|Hyperbolic|GenerateNetwork|Dijkstra|AStar|OneToMany|Sweep|Route|Edge|RoadClass'
    for san in address undefined; do
      san_dir="${repo_root}/build-${san/undefined/ubsan}"
      san_dir="${san_dir/address/asan}"
      cmake -B "${san_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE="${san}"
      cmake --build "${san_dir}" -j "$(nproc)"
      ctest --test-dir "${san_dir}" --output-on-failure -j "$(nproc)" \
        --no-tests=error -R "${graph_filter}" "$@"
    done
    plain_dir="${repo_root}/build"
    cmake -B "${plain_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
    cmake --build "${plain_dir}" -j "$(nproc)" --target bench_micro_graph
    (cd "${plain_dir}/bench" && ./bench_micro_graph --quick)
    exit 0
    ;;
  simd)
    # The SoA score lanes are raw-pointer kernels over caller-sized
    # batches — exactly where an off-by-one loop bound would live — and the
    # parity contract (ScoreIntervals bit-identical to ComputeScorePair,
    # columnar estimation to the per-candidate oracle, DESIGN.md §15) is
    # checked by the test suites themselves, and so is the Dynamic Cache
    # serving the table eq. 6 selects (DynamicCache, EcoCharge, CknnEc).
    # Run them under ASan and UBSan, then hold the bit-parity and speedup
    # floors with the asserting bench from a plain Release tree (sanitized
    # timings are meaningless). --no-tests=error makes a filter that matches nothing
    # fail instead of passing.
    shift
    simd_filter='Score|DescendingKey|PartialSelect|IterativeDeepening|CknnEc|CknnProcessor|DynamicCache|EcoCharge|OfferingTable|QueryContext|CrossIndexParity|EstimateBatch'
    for san in address undefined; do
      san_dir="${repo_root}/build-${san/undefined/ubsan}"
      san_dir="${san_dir/address/asan}"
      cmake -B "${san_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE="${san}"
      cmake --build "${san_dir}" -j "$(nproc)"
      ctest --test-dir "${san_dir}" --output-on-failure -j "$(nproc)" \
        --no-tests=error -R "${simd_filter}" "$@"
    done
    plain_dir="${repo_root}/build"
    cmake -B "${plain_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
    cmake --build "${plain_dir}" -j "$(nproc)" --target bench_micro_score
    (cd "${plain_dir}/bench" && ./bench_micro_score --quick)
    echo "check.sh simd: BENCH_score.json lands in build/bench/ and is" \
         "untracked; copy numbers into EXPERIMENTS.md when they move."
    exit 0
    ;;
  bench)
    # Offering Tables are the contract: a serving change may move any
    # timing, but never a table. Run the benchmark's own test, then each
    # workload traced and untraced, and compare its table digest with the
    # value pinned for seed 1.
    shift
    cd "${repo_root}"
    python3 perfbench/run.py --test
    declare -A pinned=(
      [city_trips]=7b4a25d3b73b7d06
      [regional_ch]=99320d79dfd9987a
      [corridor_fleet]=eba23417d62458e0
    )
    status=0
    for workload in city_trips regional_ch corridor_fleet; do
      for trace in 0 1; do
        out="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
          --seconds 3 --trace "${trace}")" || true
        result="$(tail -n 1 <<<"${out}")"
        digests="$(grep -o 'table_digest=[0-9a-f]*' <<<"${out}" | sort -u)"
        verdict=ok
        if ! grep -q '"correct": true' <<<"${result}" ||
           ! grep -q '"failed": 0,' <<<"${result}" ||
           [[ "${digests}" != "table_digest=${pinned[${workload}]}" ]]; then
          verdict=FAIL
          status=1
        fi
        echo "check.sh bench: ${workload} trace=${trace}:" \
             "${digests:-no digest} ${verdict}"
      done
    done
    exit "${status}"
    ;;
  lint)
    shift
    # A header that nothing but its own .cc includes is code no entry
    # point reaches: delete it rather than keep it compiling.
    orphans=()
    while IFS= read -r header; do
      rel="${header#"${repo_root}/src/"}"
      includers="$(grep -rlF --include='*.h' --include='*.cc' \
        --include='*.cpp' "#include \"${rel}\"" "${repo_root}/src" \
        "${repo_root}/tools" "${repo_root}/bench" "${repo_root}/examples" \
        "${repo_root}/perfbench" | grep -vxF "${header%.h}.cc" || true)"
      [[ -n "${includers}" ]] || orphans+=("src/${rel}")
    done < <(find "${repo_root}/src" -name '*.h' | sort)
    if ((${#orphans[@]})); then
      printf 'check.sh lint: orphan header (no includer): %s\n' \
        "${orphans[@]}"
      exit 1
    fi
    echo "check.sh lint: every src/ header has an includer (ok)."
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "check.sh lint: clang-tidy not installed; skipping (ok)."
      exit 0
    fi
    build_dir="${repo_root}/build"
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Checks come from the repo-root .clang-tidy; first-party code plus
    # the asserting bench gates (plain binaries that run in CI).
    mapfile -t sources < <({ find "${repo_root}/src" "${repo_root}/tools" \
      -name '*.cc'; echo "${repo_root}/bench/bench_micro_obs.cc"; \
      echo "${repo_root}/bench/bench_micro_derouting.cc"; \
      echo "${repo_root}/bench/bench_micro_eis.cc"; \
      echo "${repo_root}/bench/bench_micro_score.cc"; \
      echo "${repo_root}/bench/bench_server_throughput.cc"; } | sort)
    clang-tidy -p "${build_dir}" --quiet "${sources[@]}" "$@"
    exit 0
    ;;
  "") ;;
  *) sanitize="" ;;  # first arg is a ctest flag, not a sanitizer
esac

if [[ -n "${sanitize}" ]]; then
  build_dir="${repo_root}/build-${sanitize/undefined/ubsan}"
  build_dir="${build_dir/address/asan}"
  build_dir="${build_dir/thread/tsan}"
else
  build_dir="${repo_root}/build"
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DECOCHARGE_SANITIZE="${sanitize}"
cmake --build "${build_dir}" -j "$(nproc)"
# --no-tests=error: a -R filter that matches nothing fails instead of
# passing, as in the graph and simd gates.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  --no-tests=error "$@"

if [[ -n "${obs_gate}" ]]; then
  # Overhead numbers only mean anything without a sanitizer, so the bench
  # runs from the plain Release tree.
  plain_dir="${repo_root}/build"
  cmake -B "${plain_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
  cmake --build "${plain_dir}" -j "$(nproc)" --target bench_micro_obs
  "${plain_dir}/bench/bench_micro_obs"
fi

if [[ -n "${fault_gate}" ]]; then
  # Deterministic fault sweep (seeded faults, virtual latency): asserts
  # every request is answered under injected upstream failures. Timing
  # under TSan is meaningless, so it runs from the plain Release tree.
  plain_dir="${repo_root}/build"
  cmake -B "${plain_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
  cmake --build "${plain_dir}" -j "$(nproc)" --target bench_fault_resilience
  (cd "${plain_dir}/bench" && ./bench_fault_resilience --quick)
fi

if [[ -n "${serve_gate}" ]]; then
  # Bit parity across worker counts, the corridor hit-rate floor, and the
  # I/O-bound QPS scaling floor; timing wants a plain Release tree.
  plain_dir="${repo_root}/build"
  cmake -B "${plain_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DECOCHARGE_SANITIZE=
  cmake --build "${plain_dir}" -j "$(nproc)" --target bench_server_throughput
  (cd "${plain_dir}/bench" && ./bench_server_throughput --quick)
  echo "check.sh serve: BENCH_server.json lands in build/bench/ and is" \
       "untracked; copy numbers into EXPERIMENTS.md when they move."
fi
