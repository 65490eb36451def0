GO ?= go

.PHONY: all build fmt vet staticcheck test race examples order-stress detector-stress chaos chaos-smoke chaos-churn chaos-replication check bench-smoke bench-ledger-check fuzz-smoke clean

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

# examples runs every program under examples/ and fails on the first one
# that exits non-zero: go build compiles them, but nothing else runs them.
# About a second once built.
examples:
	@for d in examples/*/; do echo "$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# order-stress reruns the schedule-dependent crash-consistency tests: the
# recovered state of an object whose concurrent commits do not commute
# state-wise equals the live one only while log order == install order
# (DESIGN §9), and a single run can pass by luck. Both run on a file WAL,
# whose group commit writes one batch while the previous batch's fsync is
# in flight; the tx test also runs on the in-memory Disk, with read-only
# auditors whose commits are written unforced beside the writers and whose
# records must all survive the crash. The blocked-durability line reruns,
# under the race detector, the tests that hold a log force open: a
# read-only commit and an abort return while it is stalled, an update
# commit waits for it, and leadership is kept while the log is busy
# (DESIGN §13). The dist line
# reruns, under the race detector, the tests that pin where a running site
# gets an outcome: from its volatile tables, never its log, with a yes-vote
# registered before voteMu is released and a half whose commit record failed
# holding its object against export. The handshake line reruns, under the
# race detector, the epoch-table tests: a site handshaken once per crash,
# the resend of a first message refused on its first transmission, the
# first-contact window, and network reconfiguration racing transfers and
# crashes. The record line reruns, under the race detector, the tests that
# pin a site's transaction records: every decision deletes its record,
# a message repeated after the decision leaves nothing behind, a recycled
# record or cluster pin carries nothing of its last transaction, beside the
# vote/refusal race and reconfiguration under transfers. The replica line
# reruns, under the race detector, the tests that pin a follower's
# timestamp deduplication: recovery from either crash window, a crash and
# recovery racing the install, a duplicated or retransmitted delivery
# applied once, one log record per delivery, a stamp between floor and
# head refused, and no follow without a logged seed. It also runs the
# replica-set tests of a migration: followers recomputed around the new
# leader, and a follower that was down when the migration dropped it
# following nothing after its recovery. And it runs the stable-stamp test:
# with an earlier transaction's deliveries held back at a down follower
# and a later one's landed, the stable timestamp stays one below the
# earlier stamp until the held deliveries land (the in-flight list pops
# only its finished prefix). About 50 seconds in all.
order-stress:
	$(GO) test -count=20 -run 'TestCrashConsistency' ./internal/tx
	$(GO) test -count=20 -run 'TestFacadeDurableQueueRecoversInInstallOrder' .
	$(GO) test -race -count=20 -run '^(TestReadOnlyCommitWaitsForNoForce|TestAbortDoesNotWaitForItsRecord|TestGroupCommitPipelinesOnlyWhileQuiet)$$' ./internal/tx
	$(GO) test -race -count=20 -run '^(TestMigrationCrashWindowSweep|TestAbandonedUnpreparedTxnSwept|TestUnanimousPeerRefusalPresumesAbort|TestDownCoordinatorAnswersInDoubt|TestRunningSitesNeverReadTheirLog|TestFailedCommitRecordHoldsTheExport|TestVoteAndRefusalNeverBothSucceed)$$' ./internal/dist
	$(GO) test -race -count=20 -run '^(TestEpochHandshakeOncePerCrash|TestReconfigureUnderTransfers|TestHandshakeClosesFirstContactWindow|TestHandshakeRegressionLock|TestHandshakeNoExpectZeroUnderFaults|TestStaleRouteRefusedAfterRestart)$$' ./internal/dist
	$(GO) test -race -count=20 -run '^(TestDecidedTransactionsLeaveNoSiteRecord|TestRetransmitAfterDecision|TestRecycledSiteRecordStartsClean|TestRecycledPinNeverAliasesShippedCalls|TestVoteAndRefusalNeverBothSucceed|TestReconfigureUnderTransfers)$$' ./internal/dist
	$(GO) test -race -count=20 -run '^(TestFollowerCrashRecoveryConverges|TestFollowerCrashAfterRecord|TestReplicaApplyRacingRecovery|TestReplicaDeliveryIsOneRecord|TestReplicaCheckpointHoldsNoDelivery|TestReplicaDuplicateDeliveryAppliesOnce|TestReplicaDeliveryBetweenFloorAndHeadRefused|TestFollowerWithoutDurableSeedServesNothing|TestMigrationMovesReplicaSet|TestDownFollowerDroppedByMigrationStaysUnfollowed|TestStableStampWaitsForOldestInFlight)$$' ./internal/dist

# detector-stress reruns the deadlock-detector tests under the race
# detector: only transactions that wait enter the detector, and Doomed,
# ClearWaiting and Forget skip its mutex while none is resident (DESIGN §9),
# so a lost doom or a leaked entry shows up as a hung victim, a wrong
# victim, or a detector left non-empty after every transaction finished.
# The hybridcc line runs the read-only wait tests and the concurrent audit
# oracle: a reader waits only for prepared updates whose prepare floor is
# below its timestamp. It also runs the reclamation tests: a commit drops
# versions below the snapshot floor, which a reader publishes before it
# draws its timestamp. The locking line also runs the tests that pin when
# a locking object may reuse a released transaction entry: never while an
# aborted waiter still holds it (the dist line covers a site's sweep), and
# always otherwise, so a warm transaction allocates no more than its spec
# Steps.
# TestStressDynamicAtomicity stays out: it flakes on its own (ROADMAP).
detector-stress:
	$(GO) test -race -count=20 -run '^(TestDetector.*|TestDeadlockDetectionAcrossObjects|TestTimeoutWithoutDetector|TestAbortedWaiterStillSeesHolder|TestSweptWaiterNeverSharesAnEntry|TestRecycledEntryAllocatesOnlySteps)$$' ./internal/locking
	$(GO) test -race -count=20 -run '^(TestRunRetriesDeadlocks|TestUncontendedTxnsNeverResident)$$' ./internal/tx
	$(GO) test -race -count=20 -run '^(TestReadOnlyWaitsForPreparedUpdate|TestReaderBelowFloorSkipsPreparedUpdate|TestReaderWaitsOnlyForFloorsBelow|TestZeroFloorBlocksReaders|TestConcurrentAuditsConserve|TestLongLivedReaderKeepsItsSnapshot|TestReclamationRace)$$' ./internal/hybridcc
	$(GO) test -race -count=20 -run '^TestSweptWaiterLeavesDetectorEmpty$$' ./internal/dist
	$(GO) test -race -count=20 -run '^TestFacadeDeadlockCascadeLeavesDetectorEmpty$$' .

# check is the CI gate: formatting, vet, staticcheck (when present), build,
# the full suite under the race detector, the examples, the install-order
# stress, the deadlock-detector stress, and the ledger's own vet and tests
# (it compiles against the product and forwards guard methods by type
# assertion, which the root build does not see).
check: fmt vet staticcheck build race examples order-stress detector-stress bench-ledger-check

# chaos runs the fault-injection harness across a batch of seeds in every
# mode: each atomicity property, plus the churn and replication clusters.
chaos:
	$(GO) run ./cmd/chaos -property dynamic -runs 10
	$(GO) run ./cmd/chaos -property dynamic -churn -runs 10
	$(GO) run ./cmd/chaos -property dynamic -replication -runs 10
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
# Twenty seeds: churn is the mode that finds durability-ordering bugs
# between commit records, checkpoints and migration exports.
chaos-churn:
	$(GO) run ./cmd/chaos -property dynamic -churn -seed 1 -runs 20 -checkpoint 2ms

# chaos-replication is the replica-group chaos gate: every object
# replicated across a four-site cluster while follower deliveries drop,
# followers crash inside the apply windows, single-site partitions rotate,
# and WAL checkpointing compacts the logs. On top of the usual oracles and
# single-homing, every completed snapshot audit must see a conserved total
# and every follower must converge to its leader's committed state — both
# before and after a crash-all-sites restart. Coordinator crashes stay
# unarmed here: an orphaned decision never ships its deliveries (DESIGN
# §14). The oracle table is DESIGN §7.
chaos-replication:
	$(GO) run ./cmd/chaos -property dynamic -replication -seed 1 -runs 5 -checkpoint 2ms

# bench-smoke runs every benchmark once, tests filtered out (the suite
# already ran them), and prints one tiny bankbench table so the paper CLI
# still runs — a check that the ladders and the CLI work, not a
# measurement. The ledger (bench-ledger-check, bench/run.sh) measures.
bench-smoke:
	$(GO) run ./cmd/bankbench -exp e5 -workers 2 -transfers 10 -audits 4 -accounts 4 > /dev/null
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# bench-ledger-check vets and tests the performance ledger (bench/, a
# nested module that `go build ./... && go test ./...` at the root neither
# builds nor runs) against the product code of this checkout: a product
# change that breaks what the ledger compiles against, or one of its
# oracles, fails here instead of in the next benchmark run. About 16 s.
bench-ledger-check:
	cd bench && $(GO) vet . && $(GO) test -count=1 .

# fuzz-smoke runs the library's fuzzers for a bounded time each: the
# conflict engine's memoised exact stage must be indistinguishable from the
# unmemoised search, the WAL frame decoder must turn arbitrary segment
# damage into a clean torn-tail trim or ErrCorrupt — never a panic or a
# silent misparse — the WAL record decoder must turn arbitrary payloads
# into a record that re-encodes stably or ErrCorrupt, every ADT state
# decoder must reject corrupt checkpoint bytes cleanly or produce a state
# that round-trips, the hand-written wire codec (Value, and the /v1/tx
# request and response) must accept and refuse exactly what encoding/json
# does, decode to the same values, and encode to the same bytes, and the
# transaction-number parser must accept only what TxnID produces.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzExactMemo -fuzztime=30s ./internal/conflict
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/recovery
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=30s ./internal/recovery
	$(GO) test -run='^$$' -fuzz=FuzzStateDecode -fuzztime=30s ./internal/adts
	$(GO) test -run='^$$' -fuzz=FuzzValueJSON -fuzztime=30s ./internal/value
	$(GO) test -run='^$$' -fuzz=FuzzTxRequestDecode -fuzztime=30s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzTxResponseDecode -fuzztime=30s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzTxnSeq -fuzztime=30s ./internal/cc

clean:
	$(GO) clean ./...
