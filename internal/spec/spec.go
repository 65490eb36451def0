// Package spec defines serial specifications of objects.
//
// In the paper, the specification of an object x is a set of well-formed
// event sequences. Following §3, that set is generated from two pieces: the
// acceptable *serial* sequences of x — which this package describes as a
// (possibly nondeterministic) state machine — and closure under a local
// atomicity property, which package core implements. Nondeterministic
// operations are first-class: Step returns every permissible outcome, which
// is one of the novelties the paper claims over function-only models
// (§1, §6).
package spec

import (
	"fmt"

	"weihl83/internal/value"
)

// Invocation is an operation invocation: a name plus an argument value.
type Invocation struct {
	Op  string
	Arg value.Value
}

// String renders the invocation as op(arg), or just op when there is no
// argument.
func (in Invocation) String() string {
	if in.Arg.IsNil() {
		return in.Op
	}
	return fmt.Sprintf("%s(%s)", in.Op, in.Arg)
}

// Call is an invocation together with its observed result; a serial trace
// of an object is a sequence of Calls.
type Call struct {
	Inv    Invocation
	Result value.Value
}

// String renders the call as op(arg)=result.
func (c Call) String() string {
	return fmt.Sprintf("%s=%s", c.Inv, c.Result)
}

// Outcome is one permissible behaviour of an invocation: the result it
// returns and the state the object moves to.
type Outcome struct {
	Result value.Value
	Next   State
}

// State is a state of a serial specification. Implementations must be
// immutable: Step never modifies the receiver.
type State interface {
	// Step returns all permissible outcomes of applying inv in this state.
	// A deterministic operation yields exactly one outcome; a
	// nondeterministic one yields several. An empty (or nil) slice means
	// the invocation is not permitted in this state — there is no
	// acceptable serial sequence extending the trace with it.
	Step(inv Invocation) []Outcome

	// Key returns a canonical encoding of the state, used to deduplicate
	// states during nondeterministic replay and to memoize searches. Two
	// states with equal keys must be behaviourally identical.
	Key() string
}

// SerialSpec describes the sequential behaviour of an object type: a name
// and an initial state.
type SerialSpec interface {
	Name() string
	Init() State
}

// StateCodec is an optional extension of SerialSpec for types whose states
// can be serialized to stable storage. Key() is a canonical encoding but
// deliberately not a reversible one (states are interface values built by
// each type); a durable backend needs to round-trip checkpoint snapshots
// through bytes, so specs that want their objects to survive in an on-disk
// checkpoint implement StateCodec too. DecodeState(EncodeState(st)) must
// yield a state with st's Key.
type StateCodec interface {
	// EncodeState serializes a state produced by this spec.
	EncodeState(State) ([]byte, error)
	// DecodeState reverses EncodeState.
	DecodeState([]byte) (State, error)
}

// Deterministic is an optional extension of State for types whose every
// invocation has at most one outcome. StepOne returns Step's only outcome
// without building a slice, and false where Step returns none. self is the
// receiver as the caller holds it, boxed: an invocation that leaves the
// state unchanged returns self as Next instead of boxing the receiver
// again.
type Deterministic interface {
	StepOne(self State, inv Invocation) (Outcome, bool)
}

// Apply runs inv deterministically from st by selecting the specification's
// first outcome. Protocol implementations use Apply as the canonical
// executable behaviour of the type; checkers use Step directly so that all
// nondeterministic outcomes are admitted. It returns an error if inv is not
// permitted in st. A Deterministic state is stepped through StepOne.
func Apply(st State, inv Invocation) (Outcome, error) {
	if d, ok := st.(Deterministic); ok {
		if out, ok := d.StepOne(st, inv); ok {
			return out, nil
		}
	} else if outs := st.Step(inv); len(outs) > 0 {
		return outs[0], nil
	}
	return Outcome{}, fmt.Errorf("spec: invocation %s not permitted in state %s", inv, st.Key())
}

// Replay applies a sequence of invocations deterministically from the
// spec's initial state and returns the resulting calls. It is a convenience
// for workload construction and tests.
func Replay(s SerialSpec, invs []Invocation) ([]Call, State, error) {
	st := s.Init()
	calls := make([]Call, 0, len(invs))
	for _, inv := range invs {
		out, err := Apply(st, inv)
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s: %w", s.Name(), err)
		}
		calls = append(calls, Call{Inv: inv, Result: out.Result})
		st = out.Next
	}
	return calls, st, nil
}

// Feasible reports whether the trace (a sequence of calls with observed
// results) is permitted by the specification: whether there is some
// resolution of the nondeterministic choices under which every call returns
// exactly its observed result. It runs a set-of-states simulation,
// deduplicating by Key.
func Feasible(s SerialSpec, trace []Call) bool {
	return len(FeasibleStates(s, trace)) > 0
}

// FeasibleStates returns the set of states the object may be in after
// exhibiting trace, deduplicated by Key. An empty result means the trace is
// not permitted by the specification.
func FeasibleStates(s SerialSpec, trace []Call) []State {
	states := map[string]State{s.Init().Key(): s.Init()}
	for _, c := range trace {
		next := make(map[string]State)
		for _, st := range states {
			for _, out := range st.Step(c.Inv) {
				if out.Result == c.Result {
					next[out.Next.Key()] = out.Next
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		states = next
	}
	out := make([]State, 0, len(states))
	for _, st := range states {
		out = append(out, st)
	}
	return out
}

// FeasibleFrom is FeasibleStates starting from an explicit set of states
// rather than the spec's initial state. Checkers use it to extend partial
// serializations incrementally.
func FeasibleFrom(states []State, trace []Call) []State {
	cur := make(map[string]State, len(states))
	for _, st := range states {
		cur[st.Key()] = st
	}
	for _, c := range trace {
		next := make(map[string]State)
		for _, st := range cur {
			for _, out := range st.Step(c.Inv) {
				if out.Result == c.Result {
					next[out.Next.Key()] = out.Next
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	out := make([]State, 0, len(cur))
	for _, st := range cur {
		out = append(out, st)
	}
	return out
}

// Registry maps object names to their serial specifications. Checkers need
// to know each object's spec to decide acceptability; a Registry carries
// that binding.
type Registry map[string]SerialSpec

// Lookup returns the spec registered under name.
func (r Registry) Lookup(name string) (SerialSpec, error) {
	s, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("spec: no specification registered for object %q", name)
	}
	return s, nil
}
