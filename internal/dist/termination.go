package dist

import (
	"slices"
	"sort"
	"time"

	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/recovery"
)

// Observability for the cooperative termination protocol: how often
// resolution had to block. How in-doubt transactions were resolved is
// counted per path, dist.indoubt.resolved.{coordinator,peer,presumed-abort}.
var obsInDoubtBlocked = obs.Default.Counter("dist.indoubt.blocked")

// Outcome is a transaction's fate as known to one node, the unit of
// information exchanged by the cooperative termination protocol. It is the
// log fold's fate vocabulary: a running node answers from its volatile
// tables, which recovery rebuilds from the fold of its log.
type Outcome = recovery.Fate

// Outcome values. Unknown means "no trace of the transaction" — from the
// coordinator that is a sound presumed-abort answer (the continuity rule
// forbids it from later committing a transaction it forgot); from a peer
// it additionally carries a durable promise never to vote yes, so a
// unanimous Unknown from every peer also resolves to presumed abort.
// InDoubt means the node has a prepare record (or a live decision window)
// but no outcome, or is down; the asker must keep waiting.
const (
	OutcomeUnknown   = recovery.FateUnknown
	OutcomeCommitted = recovery.FateCommitted
	OutcomeAborted   = recovery.FateAborted
	OutcomeInDoubt   = recovery.FateInDoubt
)

// outcomeNode is a network-addressable answerer of outcome queries: sites
// and the coordinator.
type outcomeNode interface {
	Up() bool
	queryOutcome(txn histories.ActivityID) Outcome
}

// queryOutcome answers a peer's outcome query about txn (see refuse).
func (s *Site) queryOutcome(txn histories.ActivityID) Outcome {
	s.voteMu.Lock()
	defer s.voteMu.Unlock()
	return s.refuse(txn)
}

// refuse answers txn's outcome from this site's volatile tables (see
// outcomeOf), under voteMu. If the running site has no trace of the
// transaction — no outcome, no yes-vote — it durably refuses it: an abort
// record is forced before the answer, so no later prepare can vote yes,
// making the Unknown answer a binding promise the asker may count toward
// unanimous presumed abort. A refusal whose log write fails degrades to
// InDoubt: an unlogged promise must not be given. The refused
// transaction's record, if it has one, stays: it may hold locks here,
// which the sweeper (AbortAbandoned) releases from it.
func (s *Site) refuse(txn histories.ActivityID) Outcome {
	out := s.outcomeOf(txn)
	if out != OutcomeUnknown {
		return out
	}
	if err := s.disk.Append(recovery.Record{Kind: recovery.RecordAbort, Txn: txn}); err != nil {
		return OutcomeInDoubt
	}
	s.mu.Lock()
	if s.decided != nil {
		s.decided.set(txn, false)
	}
	s.mu.Unlock()
	return OutcomeUnknown
}

// outcomeOf answers txn's fate from memory alone. A running site's volatile
// tables are authoritative: decided holds every outcome it reached or
// recovered (a commit only once its record is logged; an abort's record is
// best-effort, the log presuming abort), and the transaction records hold
// every yes-vote it logged without one (vote registers the half before it
// releases voteMu). A down site has no tables and answers in-doubt, which
// every asker treats like an unreachable node; its log is read back only by
// Recover.
func (s *Site) outcomeOf(txn histories.ActivityID) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up.Load() {
		return OutcomeInDoubt
	}
	if out := s.decided.outcome(txn); out != OutcomeUnknown {
		return out
	}
	if s.txns[txn].voted() {
		return OutcomeInDoubt
	}
	return OutcomeUnknown
}

// resolveOutcome runs one round of the cooperative termination protocol
// for an in-doubt transaction: query the coordinator first; if it is
// unreachable (down or partitioned away), poll the peer participants. Any
// node that durably knows the outcome answers it. The coordinator
// answering Unknown is presumed abort (continuity rule); every peer
// unanimously answering Unknown is presumed abort too (each answer is a
// durable refusal ever to vote yes, so the commit decision has become
// impossible). Anything else — coordinator in-doubt window, a peer also
// in doubt, an unreachable peer — leaves the transaction blocked: ok is
// false and the caller retries later.
//
// With a coordinator pool, the member queried is the one owning txn by
// the same hash-by-id assignment Pool.Decide uses, so the asker always
// reaches the node that made (or would have made) the decision.
func (s *Site) resolveOutcome(txn histories.ActivityID, participants []string) (commit bool, path string, ok bool) {
	coord := s.coords[coordIndex(txn, len(s.coords))]
	out, err := s.net.QueryOutcome(s.id, coord, txn)
	if err == nil {
		switch out {
		case OutcomeCommitted:
			return true, "coordinator", true
		case OutcomeAborted:
			return false, "coordinator", true
		case OutcomeUnknown:
			return false, "presumed-abort", true
		default: // OutcomeInDoubt: live decision window
			return false, "", false
		}
	}
	var peers []string
	for _, p := range participants {
		if SiteID(p) != s.id && !slices.Contains(peers, p) {
			peers = append(peers, p)
		}
	}
	polled, unknowns := 0, 0
	for _, p := range peers {
		out, err := s.net.QueryOutcome(s.id, SiteID(p), txn)
		if err != nil {
			continue // unreachable peer: no information
		}
		polled++
		switch out {
		case OutcomeCommitted:
			return true, "peer", true
		case OutcomeAborted:
			return false, "peer", true
		case OutcomeUnknown:
			unknowns++
		}
	}
	if len(peers) > 0 && polled == len(peers) && unknowns == polled {
		return false, "presumed-abort", true
	}
	return false, "", false
}

// ResolveInDoubt runs the termination protocol for every transaction that
// has been in doubt at this (running) site for at least grace and is past
// its per-transaction backoff gate, applying any outcome it learns. It
// returns the number resolved. Blocked transactions get their next attempt
// pushed out under capped exponential backoff; they resolve on a later
// call, once the partition heals or the coordinator recovers.
//
// The grace period keeps the resolver off transactions whose decision is
// simply still in flight; even without it, resolution is safe — the
// coordinator answers InDoubt throughout a live client's decision window.
func (s *Site) ResolveInDoubt(grace time.Duration) int {
	if !s.Up() {
		return 0
	}
	now := time.Now()
	type candidate struct {
		txn          histories.ActivityID
		participants []string
	}
	var cands []candidate
	s.mu.Lock()
	for txn, t := range s.txns {
		if !t.voted() || now.Sub(t.preparedAt) < grace || now.Before(t.nextTry) {
			continue
		}
		cands = append(cands, candidate{txn: txn, participants: t.participants}) // frozen: shared, never written
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].txn < cands[j].txn })
	resolved := 0
	for _, c := range cands {
		commit, path, ok := s.resolveOutcome(c.txn, c.participants)
		if !ok {
			obsInDoubtBlocked.Inc()
			s.mu.Lock()
			if t := s.txns[c.txn]; t.voted() {
				t.attempts++
				backoff := 200 * time.Microsecond << uint(t.attempts)
				if backoff > 5*time.Millisecond || backoff <= 0 {
					backoff = 5 * time.Millisecond
				}
				t.nextTry = time.Now().Add(backoff)
			}
			s.mu.Unlock()
			continue
		}
		if s.applyOutcome(c.txn, commit, path) {
			resolved++
		}
	}
	return resolved
}

// applyOutcome installs a termination-protocol verdict at a running site,
// on every half the transaction still has prepared here (see decide), and
// reports whether it did. A transaction a commit/abort handler finished
// meanwhile has nothing left to resolve.
func (s *Site) applyOutcome(txn histories.ActivityID, commit bool, path string) bool {
	s.mu.Lock()
	pending := s.txns[txn].voted()
	s.mu.Unlock()
	if !pending || s.decide(0, txn, "", commit, "", "") != nil {
		return false
	}
	obs.Default.Counter("dist.indoubt.resolved." + path).Inc()
	return true
}

// PendingInDoubt returns how many transactions are prepared at this site
// without a known outcome (zero when the site is down — its in-doubt set
// lives in the log until recovery).
func (s *Site) PendingInDoubt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.txns {
		if t.voted() {
			n++
		}
	}
	return n
}
