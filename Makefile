GO ?= go

.PHONY: all build fmt vet staticcheck test race order-stress chaos chaos-smoke chaos-churn chaos-replication check bench-smoke bench-hotpath bench-guardcascade bench-service bench-service-full bench-shard bench-shard-full bench-replication bench-replication-full bench-ledger-check fuzz-smoke clean

all: check

build:
	$(GO) build ./...

# fmt fails, listing them, when any Go file in the repository (the bench/
# module included) is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is a
# no-op otherwise: the gate must not depend on network installs, so
# machines without the tool (including minimal CI runners) skip it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

# -count=1: several tests are schedule-dependent, and a cached "ok" from
# an unrelated earlier run is how a red tier-1 once went unnoticed.
test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# order-stress reruns the schedule-dependent crash-consistency tests: the
# recovered state of an object whose concurrent commits do not commute
# state-wise equals the live one only while log order == install order
# (DESIGN §9), and a single run can pass by luck. Well under a second.
order-stress:
	$(GO) test -count=20 -run 'TestCrashConsistency' ./internal/tx

# check is the CI gate: formatting, vet, staticcheck (when present), build,
# the full suite under the race detector, and the install-order stress.
check: fmt vet staticcheck build race order-stress

# chaos runs the fault-injection harness across a batch of seeds under
# every atomicity property.
chaos:
	$(GO) run ./cmd/chaos -property dynamic -runs 10
	$(GO) run ./cmd/chaos -property static -runs 10
	$(GO) run ./cmd/chaos -property hybrid -runs 10

# chaos-smoke is the CI chaos gate: a fixed-seed batch under every
# atomicity property, with the full distributed fault surface enabled for
# the dynamic runs — site crashes inside 2PC, coordinator crashes around
# its decision log, network partitions, and WAL checkpointing (including
# torn checkpoints). Every run must satisfy all three oracles: the exact
# atomicity checker, money conservation, and crash-all-sites restart
# replay.
chaos-smoke:
	$(GO) run ./cmd/chaos -property dynamic -seed 1 -runs 5 -coordcrash 0.05 -partition 0.5 -checkpoint 2ms
	$(GO) run ./cmd/chaos -property static -seed 1 -runs 5
	$(GO) run ./cmd/chaos -property hybrid -seed 1 -runs 5

# chaos-churn is the elastic-cluster chaos gate: membership churn
# (join/leave/targeted moves/rebalances), shard-migration crash and
# partition windows, and WAL checkpointing, all at once. On top of the
# usual oracles every run must end with each object singly-homed and every
# committed state reconstructible from the logs at its post-churn home.
chaos-churn:
	$(GO) run ./cmd/chaos -property dynamic -churn -seed 1 -runs 5 -checkpoint 2ms

# chaos-replication is the replica-group chaos gate: every object
# replicated across a four-site cluster while follower deliveries drop,
# followers crash inside the apply windows, single-site partitions rotate,
# and WAL checkpointing compacts the logs. On top of the usual oracles
# every completed snapshot audit must see a conserved total and every
# follower must converge to its leader's committed state — both before and
# after a crash-all-sites restart. Coordinator crashes stay unarmed here:
# an orphaned decision never ships its deliveries (DESIGN §14).
chaos-replication:
	$(GO) run ./cmd/chaos -property dynamic -replication -seed 1 -runs 5 -checkpoint 2ms

# bench-smoke compiles and exercises every benchmark once and produces a
# machine-readable bankbench result at a tiny scale — a fast regression
# gate for the bench and -json paths, not a measurement.
bench-smoke:
	$(GO) run ./cmd/bankbench -json -exp e5 -workers 2 -transfers 10 -audits 4 -accounts 4 > BENCH_smoke.json
	$(GO) test -bench=. -benchtime=1x ./...

# bench-hotpath measures commit throughput on the hot-path sweep
# (commut / commut+wal / hybrid at 1/4/16 workers, recording enabled,
# best-of-3) and gates on >20% normalised regression against the committed
# BENCH_hotpath.json "after" rows. benchguard normalises by the median
# fresh/reference ratio, so a uniformly slower CI machine passes while a
# configuration that collapsed relative to the others fails.
bench-hotpath:
	$(GO) run ./cmd/bankbench -json -exp hotpath -transfers 2000 -accounts 16 -repeat 3 \
		| $(GO) run ./cmd/benchguard -ref BENCH_hotpath.json

# bench-guardcascade regenerates the committed conflict-engine comparison:
# rw/table/exact/cascade end to end at 1/4/16 workers, plus raw grant-check
# throughput of the memoised cascade vs the unmemoised exact search.
bench-guardcascade:
	$(GO) run ./cmd/bankbench -json -exp guardcascade -repeat 3 > BENCH_guardcascade.json

# bench-service is the CI service gate: a short open-loop loadgen ladder
# against an in-process server, gated by benchguard against the committed
# BENCH_service.json. The smoke rungs reuse (tenants, rate) keys present in
# the reference. Open-loop commits/s tracks the arrival rate while the
# server keeps up, so the normalised ratio only collapses when a rung
# starts shedding or failing — a functional regression gate, not a
# microbenchmark.
bench-service:
	$(GO) run ./cmd/loadgen -tenants 1,2 -rates 500,1000 -conns 256 -duration 2s \
		| $(GO) run ./cmd/benchguard -ref BENCH_service.json -labels tenants,rate

# bench-service-full regenerates the committed service reference: the full
# tenants x arrival-rate ladder at 1200 persistent connections with Zipf
# key skew.
bench-service-full:
	$(GO) run ./cmd/loadgen -tenants 1,2,4 -rates 500,1000,2000 -conns 1200 -duration 3s > BENCH_service.json

# bench-shard is the CI elastic-cluster gate: the commit/s vs sites ladder
# (1/2/4/8 sites, shard migrations continuously in flight), gated by
# benchguard against the committed BENCH_shard.json. Throughput rises with
# cluster size as placement spreads the accounts; a rung collapsing
# relative to the others means routing, migration freezing, or 2PC
# regressed.
bench-shard:
	$(GO) run ./cmd/bankbench -json -exp shard -workers 4 -transfers 300 -accounts 8 -repeat 3 \
		| $(GO) run ./cmd/benchguard -ref BENCH_shard.json -labels sites

# bench-shard-full regenerates the committed shard ladder reference.
bench-shard-full:
	$(GO) run ./cmd/bankbench -json -exp shard -workers 4 -transfers 300 -accounts 8 -repeat 3 > BENCH_shard.json

# bench-replication is the CI replica-group gate: the factor ladder
# (1/2/3/4 replicas on a fixed four-site cluster) measuring commuting
# commit/s, read-any audit/s and the non-commuting sync-barrier cost,
# gated by benchguard against the committed BENCH_replication.json on the
# audit-rate axis. Audit throughput rising with the factor is the point of
# read-any; a rung collapsing relative to the others means the router, the
# snapshot pin, or the delivery path regressed.
bench-replication:
	$(GO) run ./cmd/bankbench -json -exp replication -workers 4 -transfers 200 -audits 200 -accounts 8 -repeat 3 \
		| $(GO) run ./cmd/benchguard -ref BENCH_replication.json -labels replicas -threshold 0.35

# bench-replication-full regenerates the committed replication ladder.
bench-replication-full:
	$(GO) run ./cmd/bankbench -json -exp replication -workers 4 -transfers 200 -audits 200 -accounts 8 -repeat 3 > BENCH_replication.json

# bench-ledger-check vets and tests the performance ledger (bench/, a
# nested module that `go build ./... && go test ./...` at the root neither
# builds nor runs) against the product code of this checkout: a product
# change that breaks what the ledger compiles against, or one of its
# oracles, fails here instead of in the next benchmark run. About 16 s.
bench-ledger-check:
	cd bench && $(GO) vet . && $(GO) test -count=1 .

# fuzz-smoke runs the library's fuzzers for a bounded time each: the
# conflict engine's memoised exact tier must be indistinguishable from the
# unmemoised search, the WAL frame decoder must turn arbitrary segment
# damage into a clean torn-tail trim or ErrCorrupt — never a panic or a
# silent misparse — the WAL record decoder must turn arbitrary payloads
# into a record that re-encodes stably or ErrCorrupt, and every ADT state
# decoder must reject corrupt checkpoint bytes cleanly or produce a state
# that round-trips.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzExactMemo -fuzztime=30s ./internal/conflict
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/recovery
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=30s ./internal/recovery
	$(GO) test -run='^$$' -fuzz=FuzzStateDecode -fuzztime=30s ./internal/adts

clean:
	$(GO) clean ./...
