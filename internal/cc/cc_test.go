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
	// Every spelling TxnID never produces for a positive number is
	// refused: a sign, a leading zero, no digits, a non-digit, zero, and
	// a number past math.MaxInt64.
	for _, id := range []histories.ActivityID{
		"t05", "t+5", "t-5", "t0", "t00", "t", "", "5", "T5", "t5x", "t 5", "t5 ",
		"t9223372036854775808", "t9223372036854775817", "t92233720368547758070", "t18446744073709551621",
		"repl!t5!acct0", "M3:acct0",
	} {
		if seq, ok := TxnSeq(id); ok {
			t.Errorf("TxnSeq(%q) = %d, true; want refused", id, seq)
		}
	}
	if id := TxnID(42); id != "t42" {
		t.Errorf("TxnID(42) = %q, want t42", id)
	}
	if got := testing.AllocsPerRun(100, func() { idSink = TxnID(1234567) }); got > 1 {
		t.Errorf("TxnID allocates %.0f times, want 1", got)
	}
}

// FuzzTxnSeq: whenever TxnSeq accepts an identifier, TxnID rebuilds exactly
// that identifier from the number, so the two are inverses and no two
// spellings share a sequence number.
func FuzzTxnSeq(f *testing.F) {
	for _, id := range []string{"t1", "t42", "t05", "t+5", "t-5", "t0", "t", "",
		"t9223372036854775807", "t9223372036854775808", "repl!t5!acct0", "M3:acct0"} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		seq, ok := TxnSeq(histories.ActivityID(id))
		if !ok {
			return
		}
		if seq <= 0 {
			t.Fatalf("TxnSeq(%q) = %d, true; want a positive number", id, seq)
		}
		if back := TxnID(seq); string(back) != id {
			t.Fatalf("TxnSeq(%q) = %d, but TxnID(%d) = %q", id, seq, seq, back)
		}
	})
}
