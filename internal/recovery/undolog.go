package recovery

import (
	"fmt"

	"weihl83/internal/spec"
)

// UndoLog is the update-in-place recovery representation: for each executed
// operation it records the compensating invocations that reverse it. Abort
// applies the compensations in reverse (LIFO) order; commit discards them.
type UndoLog struct {
	frames [][]spec.Invocation
}

// Record pushes the compensations for one executed operation. An empty
// compensation list (the operation changed nothing) is still pushed so the
// log length mirrors the number of operations.
func (u *UndoLog) Record(compensations []spec.Invocation) {
	u.frames = append(u.frames, compensations)
}

// Reset empties the log for reuse, keeping its backing array (cleared)
// unless its capacity exceeds maxCap, as IntentionsList.Reset does.
func (u *UndoLog) Reset(maxCap int) {
	if cap(u.frames) > maxCap {
		u.frames = nil
		return
	}
	clear(u.frames)
	u.frames = u.frames[:0]
}

// Len returns the number of recorded frames.
func (u *UndoLog) Len() int { return len(u.frames) }

// Undo applies all compensations in reverse order to st and returns the
// restored state.
func (u *UndoLog) Undo(st spec.State) (spec.State, error) {
	for i := len(u.frames) - 1; i >= 0; i-- {
		for _, inv := range u.frames[i] {
			out, err := spec.Apply(st, inv)
			if err != nil {
				return nil, fmt.Errorf("recovery: compensation %s not applicable: %w", inv, err)
			}
			st = out.Next
		}
	}
	return st, nil
}
