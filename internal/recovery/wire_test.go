package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// encodeRecord is one record's payload, for tests that craft payloads and
// segments by hand.
func encodeRecord(r Record, specs map[histories.ObjectID]spec.SerialSpec) ([]byte, error) {
	return appendRecord(nil, r, specs)
}

// appendFrame appends payload to buf as one frame, the framing FileWAL
// writes, for tests that craft segments by hand.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// adtObjects returns one object of every built-in ADT, each driven away
// from its initial state, and the spec table whose codecs encode them.
func adtObjects(tb testing.TB) (map[histories.ObjectID]spec.SerialSpec, map[histories.ObjectID]spec.State) {
	tb.Helper()
	inv := func(op string, arg value.Value) spec.Invocation { return spec.Invocation{Op: op, Arg: arg} }
	objects := []struct {
		id   histories.ObjectID
		typ  adts.Type
		invs []spec.Invocation
	}{
		{"account", adts.Account(), []spec.Invocation{inv(adts.OpDeposit, value.Int(40)), inv(adts.OpWithdraw, value.Int(15))}},
		{"counter", adts.Counter(), []spec.Invocation{inv(adts.OpIncrement, value.Nil()), inv(adts.OpIncrement, value.Nil())}},
		{"directory", adts.Directory(), []spec.Invocation{inv(adts.OpBind, value.Pair(1, 10)), inv(adts.OpBind, value.Pair(4, -2))}},
		{"intset", adts.IntSet(), []spec.Invocation{inv(adts.OpInsert, value.Int(7)), inv(adts.OpInsert, value.Int(3))}},
		{"queue", adts.Queue(), []spec.Invocation{inv(adts.OpEnqueue, value.Int(3)), inv(adts.OpEnqueue, value.Int(1))}},
		{"register", adts.Register(), []spec.Invocation{inv(adts.OpRegWrite, value.Str("x y"))}},
		{"seatmap", adts.SeatMap(4), []spec.Invocation{inv(adts.OpReserve, value.Int(2))}},
		{"semiqueue", adts.SemiQueue(), []spec.Invocation{inv(adts.OpEnqueue, value.Int(5)), inv(adts.OpEnqueue, value.Int(2))}},
	}
	specs := make(map[histories.ObjectID]spec.SerialSpec, len(objects))
	states := make(map[histories.ObjectID]spec.State, len(objects))
	for _, o := range objects {
		_, st, err := spec.Replay(o.typ.Spec, o.invs)
		if err != nil {
			tb.Fatal(err)
		}
		specs[o.id], states[o.id] = o.typ.Spec, st
	}
	return specs, states
}

// sameRecord reports how got differs from want: states compare by Key (a
// decoded state is a new value), everything else — nil-ness included — by
// reflect.DeepEqual.
func sameRecord(want, got Record) error {
	if (want.States == nil) != (got.States == nil) || !reflect.DeepEqual(stateKeys(want.States), stateKeys(got.States)) {
		return fmt.Errorf("states %v (nil %v), want %v (nil %v)", stateKeys(got.States), got.States == nil, stateKeys(want.States), want.States == nil)
	}
	want.States, got.States = nil, nil
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("got %#v\nwant %#v", got, want)
	}
	return nil
}

func randomString(rng *rand.Rand) string {
	const alphabet = "abcAB01!-_ é\x00"
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteRune([]rune(alphabet)[rng.Intn(len([]rune(alphabet)))])
	}
	return b.String()
}

func randomInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	default:
		return rng.Int63n(2001) - 1000
	}
}

// randomValue draws every value.Kind with equal weight.
func randomValue(rng *rand.Rand) value.Value {
	switch value.Kind(rng.Intn(6)) {
	case value.KindNil:
		return value.Nil()
	case value.KindUnit:
		return value.Unit()
	case value.KindInt:
		return value.Int(randomInt(rng))
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	case value.KindString:
		return value.Str(randomString(rng))
	default:
		return value.Pair(randomInt(rng), randomInt(rng))
	}
}

// randomRecord sets every encoded Record field; each slice and map is nil,
// empty or populated with equal weight. Checkpoint states are drawn from
// states, so they pass through every ADT codec.
func randomRecord(rng *rand.Rand, states map[histories.ObjectID]spec.State) Record {
	r := Record{
		Kind:    RecordKind(1 + rng.Intn(int(RecordCheckpoint))),
		Txn:     histories.ActivityID(randomString(rng)),
		Object:  histories.ObjectID(randomString(rng)),
		TS:      histories.Timestamp(randomInt(rng)),
		Migrate: MigrateDir(rng.Intn(int(ReplicaIn) + 1)),
		RingV:   rng.Uint64() >> uint(rng.Intn(64)),
	}
	shape := func() (isNil bool, n int) {
		switch rng.Intn(3) {
		case 0:
			return true, 0
		case 1:
			return false, 0
		default:
			return false, 1 + rng.Intn(5)
		}
	}
	if isNil, n := shape(); !isNil {
		r.Calls = make([]spec.Call, n)
		for i := range r.Calls {
			r.Calls[i] = spec.Call{Inv: spec.Invocation{Op: randomString(rng), Arg: randomValue(rng)}, Result: randomValue(rng)}
		}
	}
	if isNil, n := shape(); !isNil {
		r.Participants = make([]string, n)
		for i := range r.Participants {
			r.Participants[i] = randomString(rng)
		}
	}
	if isNil, n := shape(); !isNil {
		r.States = make(map[histories.ObjectID]spec.State)
		ids := make([]histories.ObjectID, 0, len(states))
		for id := range states {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if n > 0 && rng.Intn(2) == 0 {
				r.States[id] = states[id]
			}
		}
	}
	if isNil, n := shape(); !isNil {
		r.Decided = make(map[histories.ActivityID]bool)
		for ; n > 0; n-- {
			r.Decided[histories.ActivityID(randomString(rng))] = rng.Intn(4) > 0
		}
	}
	if isNil, n := shape(); !isNil {
		r.Hosted = make(map[histories.ObjectID]bool)
		for ; n > 0; n-- {
			r.Hosted[histories.ObjectID(randomString(rng))] = rng.Intn(2) == 0
		}
	}
	if isNil, n := shape(); !isNil {
		r.ReplicaTS = make(map[histories.ObjectID]histories.Timestamp)
		for ; n > 0; n-- {
			r.ReplicaTS[histories.ObjectID(randomString(rng))] = histories.Timestamp(randomInt(rng))
		}
	}
	return r
}

// TestRecordCodecRoundTrip is the codec's property test: seeded random
// records covering every Record field, every value.Kind, nil versus empty
// for every slice and map, and checkpoint states through all eight ADT
// codecs decode to the record that was encoded, and re-encode to the same
// bytes.
func TestRecordCodecRoundTrip(t *testing.T) {
	specs, states := adtObjects(t)
	rng := rand.New(rand.NewSource(22))
	recType := reflect.TypeOf(Record{})
	populated, nilSeen, emptySeen := make(map[string]bool), make(map[string]bool), make(map[string]bool)
	kinds := make(map[value.Kind]bool)
	codecs := make(map[histories.ObjectID]bool)
	for i := 0; i < 3000; i++ {
		r := randomRecord(rng, states)
		b, err := encodeRecord(r, specs)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := decodeRecord(b, specs)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if err := sameRecord(r, got); err != nil {
			t.Fatalf("record %d: round trip: %v", i, err)
		}
		if b2, err := encodeRecord(got, specs); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("record %d: re-encoding differs (%v):\n%x\n%x", i, err, b, b2)
		}

		rv := reflect.ValueOf(r)
		for f := 0; f < recType.NumField(); f++ {
			name, fv := recType.Field(f).Name, rv.Field(f)
			switch {
			case fv.Kind() != reflect.Slice && fv.Kind() != reflect.Map:
				populated[name] = populated[name] || !fv.IsZero()
			case fv.IsNil():
				nilSeen[name] = true
			case fv.Len() == 0:
				emptySeen[name] = true
			default:
				populated[name] = true
			}
		}
		for _, c := range r.Calls {
			kinds[c.Inv.Arg.Kind()], kinds[c.Result.Kind()] = true, true
		}
		for id := range r.States {
			codecs[id] = true
		}
	}
	for f := 0; f < recType.NumField(); f++ {
		name := recType.Field(f).Name
		if name != "Torn" && !populated[name] { // torn records are never encoded
			t.Errorf("field %s never populated: the generator (and perhaps the codec) misses it", name)
		}
		if k := recType.Field(f).Type.Kind(); (k == reflect.Slice || k == reflect.Map) && !(nilSeen[name] && emptySeen[name]) {
			t.Errorf("field %s: nil and empty not both covered", name)
		}
	}
	for k := value.KindNil; k <= value.KindPair; k++ {
		if !kinds[k] {
			t.Errorf("value kind %v never encoded", k)
		}
	}
	if len(codecs) != len(states) {
		t.Errorf("checkpoint states covered %d of %d ADT codecs", len(codecs), len(states))
	}
}

// TestRecordCodecSize pins what the format is for: a transfer's three
// records — two intentions and a commit — frame in well under the ~300
// bytes their JSON took.
func TestRecordCodecSize(t *testing.T) {
	recs := []Record{
		{Kind: RecordIntentions, Txn: "t12345", Object: "acct0042",
			Calls: []spec.Call{call(adts.OpWithdraw, value.Int(7), value.Unit())}},
		{Kind: RecordIntentions, Txn: "t12345", Object: "acct1377",
			Calls: []spec.Call{call(adts.OpDeposit, value.Int(7), value.Unit())}},
		{Kind: RecordCommit, Txn: "t12345"},
	}
	var buf []byte
	for _, r := range recs {
		var err error
		if buf, err = appendRecordFrame(buf, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(buf) > 140 {
		t.Errorf("a transfer frames in %d bytes, want at most 140", len(buf))
	}
}

// TestJSONEraRecordRefused: a payload of the JSON format earlier versions
// wrote, inside a frame whose CRC is valid, is refused as an unknown
// format — by the decoder and by an open of a directory holding it —
// rather than misread.
func TestJSONEraRecordRefused(t *testing.T) {
	legacy := [][]byte{
		[]byte(`{"k":1,"t":"t1","o":"a","c":[{"Inv":{"Op":"deposit","Arg":{"kind":"int","int":5}},"Result":{"kind":"unit"}}]}`),
		[]byte(`{"k":2,"t":"t1"}`),
	}
	for _, p := range legacy {
		_, err := decodeRecord(p, accountSpecs())
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unknown record format 0x7b") {
			t.Fatalf("decode of JSON-era payload = %v, want ErrCorrupt naming format 0x7b", err)
		}
	}
	dir := t.TempDir()
	seg := appendFrame(appendFrame(nil, legacy[0]), legacy[1])
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileWAL(FileWALOptions{Dir: dir, Specs: accountSpecs()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of a JSON-era log = %v, want ErrCorrupt", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, segName(0))); err != nil || !bytes.Equal(data, seg) {
		t.Fatalf("refused open changed the segment (%v)", err)
	}
}

// TestRecordDecodeBoundsCounts: a count claiming more elements than the
// bytes left can hold is ErrCorrupt before anything is allocated for it.
func TestRecordDecodeBoundsCounts(t *testing.T) {
	// The fixed fields of an empty commit record, then the count under
	// test at each of the six count positions, then 16 bytes of zeros.
	prefix := []byte{recordFormat, 4 /* commit */, 0, 0, 0, 0, 0}
	const claimed = 1 << 20
	for pos := 0; pos < 6; pos++ {
		payload := append([]byte(nil), prefix...)
		payload = append(payload, make([]byte, pos)...) // earlier counts: nil
		payload = binary.AppendUvarint(payload, claimed+1)
		payload = append(payload, make([]byte, 16)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRecord(payload, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d: decode = %v, want ErrCorrupt", pos, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("count %d: decode allocated %d bytes for a %d-byte payload", pos, n, len(payload))
		}
	}
}

// FuzzRecordDecode throws arbitrary payloads at the record decoder. Every
// payload either decodes — and then re-encodes to bytes that decode to the
// same record and re-encode identically — or fails with ErrCorrupt (or
// errNoCodec, for a checkpoint naming an object the spec table does not
// know: a configuration error, not damage). It never panics, and no count
// makes it allocate out of proportion to the payload.
func FuzzRecordDecode(f *testing.F) {
	specs, states := adtObjects(f)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b, err := encodeRecord(randomRecord(rng, states), specs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, r := range depositGroup("t1", "a", 5) {
		b, err := encodeRecord(r, specs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"k":2,"t":"t1"}`))
	f.Add([]byte{recordFormat})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodeRecord(payload, specs)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(payload))+256<<10 {
			t.Fatalf("decode of %d bytes allocated %d", len(payload), n)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errNoCodec) {
				t.Fatalf("decode error %v is neither ErrCorrupt nor errNoCodec", err)
			}
			return
		}
		b1, err := encodeRecord(r, specs)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		r2, err := decodeRecord(b1, specs)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if err := sameRecord(r, r2); err != nil {
			t.Fatalf("re-encoding changed the record: %v", err)
		}
		if b2, err := encodeRecord(r2, specs); err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding unstable (%v):\n%x\n%x", err, b1, b2)
		}
	})
}
