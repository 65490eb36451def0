package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// Record wire format: the payload of every WAL frame is one Record in a
// compact binary layout, its fields in this fixed order:
//
//	format        1 byte, recordFormat
//	Kind          varint
//	Txn, Object   string each
//	TS, Migrate   varint each
//	RingV         uvarint
//	Calls         count, then per call: Inv.Op string, Inv.Arg value, Result value
//	Participants  count, then one string each
//	States        count, then per object: id string, state bytes
//	Decided       count, then per transaction: id string, bool
//	Hosted        count, then per object: id string, bool
//	ReplicaTS     count, then per object: id string, varint
//
// A string (or byte blob) is a uvarint length and the bytes; a bool is one
// byte, 0 or 1. A count is a presence count: 0 for a nil slice or map, n+1
// for n elements, so decoding yields the encoded record field for field,
// nil-ness included. A value is its value.Kind as a uvarint followed by the
// kind's payload: nothing for nil and unit, a varint for int, a bool, a
// string, or two varints for a pair. Map entries are written in ascending
// key order and the decoder refuses any other order.
//
// Checkpoint state snapshots stay opaque: spec.State is an interface whose
// Key() is not reversible, so each object's state is encoded through its
// spec's StateCodec. Decoding therefore needs the spec table the file
// backend is constructed with. Torn records are never encoded: on a real
// file a torn write is a truncated frame, not a flagged record.

// recordFormat is the first byte of every record payload. The JSON records
// of earlier versions begin with '{' and are refused as an unknown format.
const recordFormat byte = 1

// errNoCodec reports a checkpoint state whose object has no spec, or whose
// spec has no StateCodec, in the table the caller supplied: a configuration
// error rather than damage to the log.
var errNoCodec = errors.New("recovery: no state codec")

func stateCodec(specs map[histories.ObjectID]spec.SerialSpec, id histories.ObjectID) (spec.StateCodec, error) {
	s, ok := specs[id]
	if !ok {
		return nil, fmt.Errorf("%w: no spec for object %s", errNoCodec, id)
	}
	codec, ok := s.(spec.StateCodec)
	if !ok {
		return nil, fmt.Errorf("%w: spec %s of object %s has none", errNoCodec, s.Name(), id)
	}
	return codec, nil
}

// appendRecord appends r's encoding to buf. specs supplies the StateCodec
// for each object in a checkpoint's States snapshot; a state without one
// makes the record unencodable (the caller's checkpoint fails cleanly,
// leaving the uncompacted log authoritative). On error buf is returned
// unchanged.
func appendRecord(buf []byte, r Record, specs map[histories.ObjectID]spec.SerialSpec) ([]byte, error) {
	var states map[histories.ObjectID][]byte
	if r.States != nil {
		states = make(map[histories.ObjectID][]byte, len(r.States))
		for id, st := range r.States {
			codec, err := stateCodec(specs, id)
			if err != nil {
				return buf, fmt.Errorf("recovery: encode: %w", err)
			}
			b, err := codec.EncodeState(st)
			if err != nil {
				return buf, fmt.Errorf("recovery: encode state of %s: %w", id, err)
			}
			states[id] = b
		}
	}
	buf = append(buf, recordFormat)
	buf = binary.AppendVarint(buf, int64(r.Kind))
	buf = appendString(buf, string(r.Txn))
	buf = appendString(buf, string(r.Object))
	buf = binary.AppendVarint(buf, int64(r.TS))
	buf = binary.AppendVarint(buf, int64(r.Migrate))
	buf = binary.AppendUvarint(buf, r.RingV)
	buf = appendCount(buf, r.Calls == nil, len(r.Calls))
	for _, c := range r.Calls {
		buf = appendString(buf, c.Inv.Op)
		buf = appendValue(buf, c.Inv.Arg)
		buf = appendValue(buf, c.Result)
	}
	buf = appendCount(buf, r.Participants == nil, len(r.Participants))
	for _, p := range r.Participants {
		buf = appendString(buf, p)
	}
	buf = appendMap(buf, states, appendBytes)
	buf = appendMap(buf, r.Decided, appendBool)
	buf = appendMap(buf, r.Hosted, appendBool)
	buf = appendMap(buf, r.ReplicaTS, func(b []byte, ts histories.Timestamp) []byte {
		return binary.AppendVarint(b, int64(ts))
	})
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendCount(buf []byte, isNil bool, n int) []byte {
	if isNil {
		return append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(n)+1)
}

// appendMap writes m's presence count and its entries in ascending key
// order.
func appendMap[K ~string, V any](buf []byte, m map[K]V, elem func([]byte, V) []byte) []byte {
	buf = appendCount(buf, m == nil, len(m))
	if len(m) == 0 {
		return buf
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendString(buf, string(k))
		buf = elem(buf, m[k])
	}
	return buf
}

func appendValue(buf []byte, v value.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		n, _ := v.AsInt()
		buf = binary.AppendVarint(buf, n)
	case value.KindBool:
		b, _ := v.AsBool()
		buf = appendBool(buf, b)
	case value.KindString:
		s, _ := v.AsString()
		buf = appendString(buf, s)
	case value.KindPair:
		a, b, _ := v.AsPair()
		buf = binary.AppendVarint(binary.AppendVarint(buf, a), b)
	}
	return buf
}

// decodeRecord reverses appendRecord. Payloads that pass their frame
// checksum but do not decode are ErrCorrupt: a valid CRC over an
// undecodable record means the bytes are authentic and the log is damaged
// (or written in a format this version does not read), which trimming must
// not paper over. A checkpoint naming an object the spec table cannot
// decode is errNoCodec instead.
func decodeRecord(payload []byte, specs map[histories.ObjectID]spec.SerialSpec) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	if payload[0] != recordFormat {
		return Record{}, fmt.Errorf("%w: unknown record format 0x%02x", ErrCorrupt, payload[0])
	}
	d := recordReader{buf: payload[1:]}
	var r Record
	r.Kind = RecordKind(d.varint())
	r.Txn = histories.ActivityID(d.str())
	r.Object = histories.ObjectID(d.str())
	r.TS = histories.Timestamp(d.varint())
	r.Migrate = MigrateDir(d.varint())
	r.RingV = d.uvarint()
	if n, ok := d.count(3); ok {
		r.Calls = make([]spec.Call, n)
		for i := range r.Calls {
			c := &r.Calls[i]
			c.Inv.Op = d.str()
			c.Inv.Arg = d.value()
			c.Result = d.value()
		}
	}
	if n, ok := d.count(1); ok {
		r.Participants = make([]string, n)
		for i := range r.Participants {
			r.Participants[i] = d.str()
		}
	}
	states := readMap[histories.ObjectID](&d, d.bytes)
	r.Decided = readMap[histories.ActivityID](&d, d.boolean)
	r.Hosted = readMap[histories.ObjectID](&d, d.boolean)
	r.ReplicaTS = readMap[histories.ObjectID](&d, func() histories.Timestamp {
		return histories.Timestamp(d.varint())
	})
	if d.err == nil && len(d.buf) > 0 {
		d.corrupt("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if r.Kind < RecordIntentions || r.Kind > RecordCheckpoint {
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, r.Kind)
	}
	if states != nil {
		r.States = make(map[histories.ObjectID]spec.State, len(states))
		for id, raw := range states {
			codec, err := stateCodec(specs, id)
			if err != nil {
				return Record{}, fmt.Errorf("recovery: decode: %w", err)
			}
			st, err := codec.DecodeState(raw)
			if err != nil {
				return Record{}, fmt.Errorf("%w: state of %s: %v", ErrCorrupt, id, err)
			}
			r.States[id] = st
		}
	}
	return r, nil
}

// recordReader consumes a record payload. The first malformed field sets
// err (ErrCorrupt) and every later read returns a zero value, so decoding
// checks once at the end.
type recordReader struct {
	buf []byte
	err error
}

func (d *recordReader) corrupt(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: record: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *recordReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.corrupt("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recordReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.corrupt("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes reads a length-prefixed blob aliasing the payload.
func (d *recordReader) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.corrupt("length %d exceeds the %d bytes left", n, len(d.buf))
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

func (d *recordReader) str() string { return string(d.bytes()) }

func (d *recordReader) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 || d.buf[0] > 1 {
		d.corrupt("bad bool")
		return false
	}
	b := d.buf[0] == 1
	d.buf = d.buf[1:]
	return b
}

// count reads a presence count: ok is false for a nil slice or map.
// elemMin is the fewest bytes one element encodes in; a count the remaining
// bytes cannot hold is corrupt, so damage never drives an allocation larger
// than the payload.
func (d *recordReader) count(elemMin int) (n int, ok bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(d.buf)/elemMin) {
		d.corrupt("count %d exceeds the %d bytes left", c-1, len(d.buf))
		return 0, false
	}
	return int(c - 1), true
}

func (d *recordReader) value() value.Value {
	switch k := value.Kind(d.uvarint()); k {
	case value.KindNil:
		return value.Nil()
	case value.KindUnit:
		return value.Unit()
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindBool:
		return value.Bool(d.boolean())
	case value.KindString:
		return value.Str(d.str())
	case value.KindPair:
		a := d.varint()
		return value.Pair(a, d.varint())
	default:
		d.corrupt("unknown value kind %d", k)
		return value.Nil()
	}
}

// readMap reads a map written by appendMap: a presence count, then entries
// whose keys must ascend strictly.
func readMap[K ~string, V any](d *recordReader, elem func() V) map[K]V {
	n, ok := d.count(2)
	if !ok {
		return nil
	}
	m := make(map[K]V, n)
	var prev string
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.corrupt("map keys out of order")
			break
		}
		prev = k
		m[K(k)] = elem()
	}
	return m
}
