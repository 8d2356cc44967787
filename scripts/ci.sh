#!/usr/bin/env bash
# CI gate: gofmt, vet, build, then every test of the root module once under
# -race -shuffle (goldens, parity harnesses, crash matrices and drills
# included). Each later step adds something that pass lacks: the bench/
# module, a CLI golden through `go run`, a -count, a deliberately non-race
# run, the coverage floor, a benchmark at -benchtime 1x, fuzzing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt (root module and bench/; gofmt -l walks both from the repo root)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l reports unformatted files:"
  echo "$unformatted"
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (shuffled: catches inter-test order dependence)"
go test -race -shuffle=on ./...

echo "== benchmark module (bench/ is its own module, so ./... above never compiles it: an internal/ rename must not break it unnoticed; smoke sizes)"
go vet -C bench ./...
go test -C bench ./...

echo "== golden chaos scenario (testdata/chaos/link_outage)"
go run ./cmd/ankchaos -in testdata/small_internet.graphml \
  -scenario testdata/chaos/link_outage.chaos > /tmp/ci_chaos_report.$$
diff -u testdata/chaos/link_outage.report /tmp/ci_chaos_report.$$
rm -f /tmp/ci_chaos_report.$$

echo "== examples (every examples/ program end to end, whatif drives incidents through emul.Lab.Apply)"
sh scripts/run_examples.sh > /dev/null

echo "== golden scheduler drill (testdata/sched/drill)"
go run ./cmd/anksched -script testdata/sched/drill.sched -seed 2013 > /tmp/ci_sched_report.$$
diff -u testdata/sched/drill.report /tmp/ci_sched_report.$$
rm -f /tmp/ci_sched_report.$$

echo "== cache-warm pass (go test -count=2: second run rebuilds against warm state)"
go test -count=2 -run 'TestCachePipelineProperty|TestCacheInvalidationMatrix|TestLenientBootDoesNotPoisonCache|TestRepeatedBuildByteDeterminism|TestCompileCacheHitProducesIdenticalDB|TestRenderCacheWarmIsByteIdentical' \
  . ./internal/compile/ ./internal/render/ ./internal/cache/

echo "== cache store under contention (-race -count=10: the store's I/O runs outside its lock)"
go test -race -count=10 -run 'TestStoreConcurrentPutGet' ./internal/cache/

echo "== coverage gate (floor 80%)"
go test -count=1 -coverprofile=/tmp/ci_cover.$$ ./... > /dev/null
total=$(go tool cover -func=/tmp/ci_cover.$$ | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')
rm -f /tmp/ci_cover.$$
awk -v t="$total" 'BEGIN {
  if (t + 0 < 80.0) { print "coverage " t "% is below the 80% floor"; exit 1 }
  print "coverage " t "% (floor 80%)"
}'

echo "== OSPF routes in a total order (-race -count=20: a /24 and a /30 on one address must not swap between runs)"
go test -race -count=20 -run 'TestOSPFRoutesTotalOrder' ./internal/routing/

echo "== persisted BGP engine under the race detector (-race -count=2: the lab's engine is rebound and run by every Apply while readers probe; the 60-router shapes keep the step under a minute)"
go test -race -count=2 -run 'TestPersistedBGPMatchesFreshEngine/[a-z]+60$|TestShardWatchdogMeasureRace' . ./internal/emul/

echo "== shared adj-RIB-outs under the race detector (-race -count: one export group's list is read by member peers in several shards at once)"
go test -race -count=5 -run 'TestExportGroupsMatchPerPeerPolicy' ./internal/routing/
go test -race -count=3 -run 'TestShardWatchdogMeasureRace' .

echo "== first error in input order (-race -count=20: two failing devices, whichever goroutine fails first, and the par fan-out's contract)"
go test -race -count=20 -run 'TestCompileErrorInDeviceOrder|TestRenderErrorInDeviceOrder' ./internal/compile/ ./internal/render/
go test -race -count=20 ./internal/par/

echo "== Extract allocates per byte (without -race: the detector makes sync.Pool lossy, and archive/tar's pooled discard buffer then costs more than the payload)"
go test -count=1 -run 'TestExtractAllocatesPerByteNotPerFile' ./internal/deploy/

echo "== allocation bounds: a warm ping allocates nothing, one incident and one cold converge stay under their ceilings (without -race: the detector allocates for sync.Once and atomics, so the -race pass skips the bounds)"
go test -count=1 -run 'TestWarmProbeAllocatesNothing|TestIncidentAllocationCeiling|TestColdConvergeAllocationCeiling' ./internal/emul/

echo "== compile + render benchmark at one and two goroutines (240 routers; -cpu sets GOMAXPROCS)"
go test -run 'NONE' -bench 'BenchmarkP1_CompileRender' -cpu 1,2 -benchtime 1x .

echo "== incremental rebuild benchmark (cold vs warm vs one-node edit; the edit run fails unless each edit misses exactly two lookups)"
go test -run 'NONE' -bench 'BenchmarkP4_IncrementalRebuild' -benchtime 1x .

echo "== persisted-engine reconvergence benchmark (fail/restore round trips at 60/120/240 routers; the 1158 row is run by hand, see EXPERIMENTS.md)"
go test -run 'NONE' -bench 'BenchmarkP6_IncrementalConvergence/n(60|120|240)$' -benchtime 1x .

echo "== convergence-under-loss benchmark (a perturber installed: loss 0/5/10/20% on 50 routers, reporting rounds and churn, plus a 240-router post-incident run)"
go test -run 'NONE' -bench 'BenchmarkP5_ConvergenceUnderLoss' -benchtime 1x .

echo "== sharded convergence benchmark (serial vs sharded round evaluation, 240 routers)"
go test -run 'NONE' -bench 'BenchmarkP9_ShardedConvergence/n240' -benchtime 1x .

echo "== reachability matrix benchmark (240 routers; fresh = hop trees rebuilt after a reconvergence, unchanged = read back)"
go test -run 'NONE' -bench 'BenchmarkP14_ReachabilityMatrix' -benchtime 1x .

echo "== data-plane generation benchmark (240 routers; build = every FIB merged and registered, fresh-matrix = first matrix on a new generation)"
go test -run 'NONE' -bench 'BenchmarkP16_DataplaneGeneration/n240' -benchtime 1x .

echo "== scheduler placement + drain benchmark (42-AS / 1158-router scale)"
go test -run 'NONE' -bench 'BenchmarkP7_SchedulerDrain' -benchtime 1x .

echo "== journal append + crash-recovery benchmark (1158-router scale)"
go test -run 'NONE' -bench 'BenchmarkP8_(JournalAppend|SchedulerRecovery)' -benchtime 1x .

echo "== preemption-under-churn + lease-round benchmark (1158-router / 36-host scale)"
go test -run 'NONE' -bench 'BenchmarkP10_PreemptionUnderChurn' -benchtime 1x .

echo "== fuzz (every Fuzz target of every package, found with go test -list, 5s each)"
for pkg in $(go list ./...); do
  for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
    go test -run=NONE -fuzz="^${target}\$" -fuzztime=5s "$pkg"
  done
done

echo "CI OK"
