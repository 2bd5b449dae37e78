#!/bin/sh
# Serving hot-path gate: run BenchmarkServeLoopback (the raw-wire
# loopback benchmark of the request→response path) at GOMAXPROCS 1 and
# 2 (-cpu 1,2) and fail if
#
#   1. any steady-state sub-benchmark allocates (allocs/op > 0) at
#      either GOMAXPROCS — the zero-allocation contract of the serving
#      path, or
#   2. GOMAXPROCS=1 throughput regressed more than MAX_LOSS vs the
#      checked-in baseline in scripts/bench_serve_baseline.json.
#
# Rows are matched by exact name: "insert_delete" is the GOMAXPROCS=1
# row and "insert_delete-2" the GOMAXPROCS=2 one.
#
# The baseline is deliberately conservative (recorded well below the
# numbers observed on the reference container) because absolute ops/s
# varies across hosts; the allocs/op gate is exact everywhere. Each
# benchmark runs count times and the best run is compared — peak
# throughput is the stable statistic on noisy shared hosts.
#
# REGEN=1 sh scripts/bench_serve.sh regenerates the baseline from the
# current host at 70% of measured throughput.
#
# Used by `make bench-serve` and CI; EXPERIMENTS.md records measured
# numbers.
set -eu

GO=${GO:-go}
OUT_DIR=${OUT_DIR:-artifacts}
BASELINE=${BASELINE:-scripts/bench_serve_baseline.json}
MAX_LOSS=${MAX_LOSS:-0.10}
COUNT=${COUNT:-2}
BENCHTIME=${BENCHTIME:-1s}

mkdir -p "$OUT_DIR"
RAW=$OUT_DIR/bench-serve.txt

$GO test -run '^$' -bench BenchmarkServeLoopback -benchmem -cpu 1,2 \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/server | tee "$RAW"

# best_ops <row name> — max ops/s over the runs.
best_ops() {
  awk -v name="$1" '
    $1 == "BenchmarkServeLoopback/" name {
      for (i = 2; i < NF; i++) if ($(i+1) == "ops/s" && $i > best) best = $i
    }
    END { if (best == "") exit 1; print best }
  ' "$RAW"
}

# max_allocs <row name> — worst allocs/op over the runs.
max_allocs() {
  awk -v name="$1" '
    BEGIN { worst = -1 }
    $1 == "BenchmarkServeLoopback/" name {
      for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i > worst) worst = $i
    }
    END { if (worst < 0) exit 1; print worst }
  ' "$RAW"
}

BENCHES="insert_delete pipelined16 pipelined16_4k"

if [ "${REGEN:-}" = "1" ]; then
  {
    echo '{'
    echo '  "schema": "bench-serve-baseline/v1",'
    first=1
    for b in $BENCHES; do
      ops=$(best_ops "$b")
      floor=$(awk -v o="$ops" 'BEGIN { printf "%.0f", o * 0.70 }')
      [ "$first" = 1 ] || echo ','
      printf '  "%s_ops_per_sec": %s' "$b" "$floor"
      first=0
    done
    echo ''
    echo '}'
  } > "$BASELINE"
  echo "bench_serve: baseline regenerated in $BASELINE"
  cat "$BASELINE"
  exit 0
fi

fail=0
for b in $BENCHES; do
  for row in "$b" "$b-2"; do
    allocs=$(max_allocs "$row") || { echo "bench_serve: no allocs/op parsed for $row" >&2; exit 1; }
    if [ "$allocs" != "0" ]; then
      echo "bench_serve: FAIL: $row allocates ($allocs allocs/op, want 0)" >&2
      fail=1
    fi
  done
  ops=$(best_ops "$b") || { echo "bench_serve: no ops/s parsed for $b" >&2; exit 1; }
  base=$(sed -n "s/.*\"${b}_ops_per_sec\": *\([0-9.]*\).*/\1/p" "$BASELINE")
  if [ -z "$base" ]; then
    echo "bench_serve: no baseline for $b in $BASELINE" >&2
    exit 1
  fi
  ok=$(awk -v o="$ops" -v b="$base" -v l="$MAX_LOSS" \
    'BEGIN { print (o >= b * (1 - l)) ? 1 : 0 }')
  if [ "$ok" != "1" ]; then
    echo "bench_serve: FAIL: $b throughput $ops ops/s under baseline $base (max loss $MAX_LOSS)" >&2
    fail=1
  else
    echo "bench_serve: $b: $ops ops/s (baseline $base), 0 allocs/op at GOMAXPROCS 1 and 2"
  fi
done

[ "$fail" = 0 ] || exit 1
echo "bench_serve: OK"
