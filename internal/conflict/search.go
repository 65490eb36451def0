package conflict

import (
	"weihl83/internal/spec"
)

// Exact-search work bounds.
const (
	// DefaultMaxBlocks caps the number of concurrent blocks the exact
	// search considers; more blocks than this denies conservatively.
	DefaultMaxBlocks = 12
	// DefaultMaxStates caps the explored (subset, state) pairs.
	DefaultMaxStates = 1 << 14
)

// The locking package's guards are thin adapters over these decision
// procedures; the engine's table and exact stages share them.

// RWAllowed is classical two-phase locking: a write conflicts with
// everything, a read conflicts with writes.
func RWAllowed(isWrite func(op string) bool, cand spec.Call, others [][]spec.Call) bool {
	candWrite := isWrite(cand.Inv.Op)
	for _, block := range others {
		for _, q := range block {
			if candWrite || isWrite(q.Inv.Op) {
				return false
			}
		}
	}
	return true
}

// TableAllowed grants a call when it commutes with every pending call of
// every other active transaction according to a static conflict predicate.
func TableAllowed(conflicts func(p, q spec.Invocation) bool, cand spec.Call, others [][]spec.Call) bool {
	for _, block := range others {
		for _, q := range block {
			if conflicts(cand.Inv, q.Inv) {
				return false
			}
		}
	}
	return true
}

// ExactSearch implements state-based dynamic atomicity by exhaustive
// arrangement checking with memoisation on (subset, state): starting from
// the committed base, every order of every subset of the active blocks
// (the requester's block has cand appended) must replay the recorded
// results. The search touches each (subset, reachable state, next block)
// triple once; maxBlocks and maxStates bound the work (zero selects
// DefaultMaxBlocks/DefaultMaxStates), and exceeding a bound conservatively
// denies the call (the requester waits, which is always safe).
func ExactSearch(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call, maxBlocks, maxStates int) bool {
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	myBlock := make([]spec.Call, 0, len(mine)+1)
	myBlock = append(myBlock, mine...)
	myBlock = append(myBlock, cand)
	blocks := make([][]spec.Call, 0, len(others)+1)
	blocks = append(blocks, myBlock)
	blocks = append(blocks, others...)
	if len(blocks) > maxBlocks {
		return false
	}

	// reach[mask] is the set of states reachable by applying the blocks of
	// mask in some order with some resolution of nondeterminism. The
	// requirement is that from every reachable state every absent block
	// replays feasibly; any failure refutes some arrangement.
	type layerState = map[string]spec.State
	reach := make(map[uint]layerState, 1<<len(blocks))
	reach[0] = layerState{base.Key(): base}
	visited := 0

	// Process masks in increasing popcount order so predecessors are
	// complete; a simple queue over masks works because adding block i to
	// mask always increases popcount.
	queue := []uint{0}
	seenMask := map[uint]bool{0: true}
	for len(queue) > 0 {
		mask := queue[0]
		queue = queue[1:]
		for i := 0; i < len(blocks); i++ {
			bit := uint(1) << i
			if mask&bit != 0 {
				continue
			}
			nextMask := mask | bit
			for _, st := range reach[mask] {
				visited++
				if visited > maxStates {
					return false
				}
				sts := spec.FeasibleFrom([]spec.State{st}, blocks[i])
				if sts == nil {
					// The arrangement reaching st followed by block i fails.
					return false
				}
				ls := reach[nextMask]
				if ls == nil {
					ls = make(layerState)
					reach[nextMask] = ls
				}
				for _, s := range sts {
					ls[s.Key()] = s
				}
			}
			if !seenMask[nextMask] {
				seenMask[nextMask] = true
				queue = append(queue, nextMask)
			}
		}
	}
	return true
}
