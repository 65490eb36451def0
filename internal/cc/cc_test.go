package cc

import (
	"math"
	"testing"

	"weihl83/internal/histories"
)

var idSink histories.ActivityID

// TestTxnIDRoundTrip: TxnSeq inverts TxnID, and building an id costs one
// allocation (the string itself).
func TestTxnIDRoundTrip(t *testing.T) {
	for _, seq := range []int64{1, 9, 10, 12345, math.MaxInt64} {
		id := TxnID(seq)
		if got, ok := TxnSeq(id); !ok || got != seq {
			t.Errorf("TxnSeq(TxnID(%d) = %q) = %d, %v", seq, id, got, ok)
		}
	}
	if id := TxnID(42); id != "t42" {
		t.Errorf("TxnID(42) = %q, want t42", id)
	}
	if got := testing.AllocsPerRun(100, func() { idSink = TxnID(1234567) }); got > 1 {
		t.Errorf("TxnID allocates %.0f times, want 1", got)
	}
}
