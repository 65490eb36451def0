package ccrt

import (
	"fmt"
	"slices"
	"testing"

	"weihl83/internal/histories"
)

// TestTableRecycle: a deleted entry is reused only once it is recycled,
// and the free list keeps exactly tableFreeCap entries, however many are
// offered.
func TestTableRecycle(t *testing.T) {
	var tb Table[int]
	a := tb.Get("a")
	if tb.Delete("a") != a {
		t.Fatal("Delete returned another entry")
	}
	if tb.Get("b") == a {
		t.Fatal("Get reused an entry that was deleted but not recycled")
	}
	tb.Delete("b")
	tb.Recycle(a)
	if tb.Get("c") != a {
		t.Fatal("Get did not reuse the recycled entry")
	}
	if tb.Get("c") != a || tb.Len() != 1 {
		t.Fatal("a second Get of one id made a second entry")
	}
	var kept []*int
	for i := 0; i < 10; i++ {
		e := new(int)
		kept = append(kept, e)
		tb.Recycle(e)
	}
	reused := 0
	for i := 0; i < 10; i++ {
		if slices.Contains(kept, tb.Get(histories.ActivityID(fmt.Sprint("n", i)))) {
			reused++
		}
	}
	if reused != tableFreeCap {
		t.Fatalf("%d of 10 recycled entries reused, want the free list's bound %d", reused, tableFreeCap)
	}
}
