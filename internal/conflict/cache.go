package conflict

import (
	"sort"
	"strings"
	"sync"

	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Cache observability: one hit/miss pair for the whole process — the
// per-object split is rarely interesting, and benchmarks read the ratio.
var (
	obsCacheHits   = obs.Default.Counter("cc.conflict.cache.hits")
	obsCacheMisses = obs.Default.Counter("cc.conflict.cache.misses")
)

// decisionCache memoises exact-search decisions. The key is the FULL
// decision input (see decisionKey) — never a hash — so a hit is the same
// question and a cached answer can never be unsound; collisions are
// impossible by construction, not improbable.
//
// Entries are only ever dropped wholesale: the locking object invalidates
// on every commit/abort (the base state or pending set moved, so existing
// keys can no longer be asked), and an overfull cache is cleared rather
// than evicted entry-by-entry (the workloads that benefit — many waiters
// re-asking against an unchanged pending set — refill it in a few calls).
type decisionCache struct {
	mu      sync.RWMutex
	entries map[string]bool
	cap     int
}

// defaultCacheEntries bounds the decision cache.
const defaultCacheEntries = 4096

func newDecisionCache(capEntries int) *decisionCache {
	return &decisionCache{entries: make(map[string]bool), cap: capEntries}
}

func (c *decisionCache) get(key string) (ok, hit bool) {
	c.mu.RLock()
	ok, hit = c.entries[key]
	c.mu.RUnlock()
	if hit {
		obsCacheHits.Inc()
	} else {
		obsCacheMisses.Inc()
	}
	return ok, hit
}

func (c *decisionCache) put(key string, ok bool) {
	c.mu.Lock()
	if len(c.entries) >= c.cap {
		c.entries = make(map[string]bool)
	}
	c.entries[key] = ok
	c.mu.Unlock()
}

func (c *decisionCache) clear() {
	c.mu.Lock()
	if len(c.entries) > 0 {
		c.entries = make(map[string]bool)
	}
	c.mu.Unlock()
}

// len reports the current entry count (tests).
func (c *decisionCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Key-encoding separators. Call.String() renders results with quoted
// strings (strconv.Quote), so these control characters cannot appear
// inside a rendered call and the encoding is injective.
const (
	sepCall  = "\x1f" // between calls of one block
	sepBlock = "\x1e" // between blocks
	sepPart  = "\x1d" // between key sections
)

// decisionKey encodes the full exact-search input: the base-state key, the
// requester's block in order, the candidate call, and the other blocks as
// an order-insensitive fingerprint (the search ranges over all subsets and
// orders of the others, so their slice order cannot affect the answer —
// sorting makes equal pending sets hit regardless of map iteration order).
func decisionKey(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) string {
	blockKeys := make([]string, len(others))
	for i, b := range others {
		blockKeys[i] = blockKey(b)
	}
	sort.Strings(blockKeys)
	var sb strings.Builder
	sb.WriteString(base.Key())
	sb.WriteString(sepPart)
	sb.WriteString(blockKey(mine))
	sb.WriteString(sepPart)
	sb.WriteString(cand.String())
	sb.WriteString(sepPart)
	for i, bk := range blockKeys {
		if i > 0 {
			sb.WriteString(sepBlock)
		}
		sb.WriteString(bk)
	}
	return sb.String()
}

func blockKey(calls []spec.Call) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = c.String()
	}
	return strings.Join(parts, sepCall)
}
