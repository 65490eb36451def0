package service

import (
	"strconv"

	"weihl83/internal/value"
)

// The /v1/tx codec. TxRequest and TxResponse cross the wire on every
// transaction, so they are encoded and decoded by hand on value.Scanner,
// in one pass and without reflection. The bytes are those encoding/json
// gives for the struct tags in wire.go, and decoding accepts exactly the
// documents json.Unmarshal accepts, with the same result: field order,
// unknown fields, case-folded keys, null and repeated keys included.
// FuzzTxRequestDecode and FuzzTxResponseDecode hold the codec to
// encoding/json. The provisioning and metrics endpoints, off the hot path,
// stay on encoding/json.

// AppendJSON appends r's wire form to b.
func (r *TxRequest) AppendJSON(b []byte) []byte {
	b = append(b, `{"tenant":`...)
	b = value.AppendString(b, r.Tenant)
	if r.ReadOnly {
		b = append(b, `,"read_only":true`...)
	}
	b = append(b, `,"ops":`...)
	if r.Ops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			op := &r.Ops[i]
			b = append(b, `{"object":`...)
			b = value.AppendString(b, op.Object)
			b = append(b, `,"op":`...)
			b = value.AppendString(b, op.Op)
			b = append(b, `,"arg":`...)
			b = op.Arg.AppendJSON(b)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// DecodeJSON decodes data, which must hold exactly one JSON document, into
// r, as json.Unmarshal(data, r) would.
func (r *TxRequest) DecodeJSON(data []byte) error {
	s := value.NewScanner(data)
	if !s.Null() {
		s.Object(func(key []byte) {
			switch {
			case value.KeyMatches(key, "tenant"):
				s.StringInto(&r.Tenant)
			case value.KeyMatches(key, "read_only"):
				s.BoolInto(&r.ReadOnly)
			case value.KeyMatches(key, "ops"):
				r.Ops = scanSlice(&s, r.Ops, func(op *OpRequest) { scanOp(&s, op) })
			default:
				s.Skip()
			}
		})
	}
	s.End()
	return s.Err()
}

// scanOp decodes one element of an ops array into op, merging into what
// op already holds.
func scanOp(s *value.Scanner, op *OpRequest) {
	if s.Null() {
		return
	}
	s.Object(func(key []byte) {
		switch {
		case value.KeyMatches(key, "object"):
			s.StringInto(&op.Object)
		case value.KeyMatches(key, "op"):
			s.StringInto(&op.Op)
		case value.KeyMatches(key, "arg"):
			op.Arg = s.Value()
		default:
			s.Skip()
		}
	})
}

// scanSlice decodes an array into xs the way encoding/json decodes into a
// slice: elem decodes each element in place, into whatever a repeated key
// left there, then the slice is cut to the array's length; an empty array
// is a non-nil empty slice and null is nil. A fresh slice starts at
// capacity 4, not 1: the spare capacity holds only zero elements, so the
// result is the same with fewer allocations.
func scanSlice[T any](s *value.Scanner, xs []T, elem func(*T)) []T {
	if s.Null() {
		return nil
	}
	n := 0
	s.Array(func() {
		switch {
		case n < len(xs):
		case n < cap(xs):
			xs = xs[:n+1]
		case cap(xs) == 0:
			xs = make([]T, 1, 4)
		default:
			var zero T
			xs = append(xs, zero)
		}
		elem(&xs[n])
		n++
	})
	if n == 0 {
		return []T{}
	}
	return xs[:n]
}

// AppendJSON appends r's wire form to b.
func (r *TxResponse) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if r.Txn != "" {
		b = append(b, `"txn":`...)
		b = value.AppendString(b, r.Txn)
		b = append(b, ',')
	}
	b = append(b, `"committed":`...)
	b = strconv.AppendBool(b, r.Committed)
	if len(r.Results) > 0 {
		b = append(b, `,"results":[`...)
		for i, v := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = v.AppendJSON(b)
		}
		b = append(b, ']')
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = value.AppendString(b, r.Error)
	}
	if r.Code != "" {
		b = append(b, `,"code":`...)
		b = value.AppendString(b, r.Code)
	}
	if r.Retryable {
		b = append(b, `,"retryable":true`...)
	}
	return append(b, '}')
}

// DecodeJSON decodes data, which must hold exactly one JSON document, into
// r, as json.Unmarshal(data, r) would.
func (r *TxResponse) DecodeJSON(data []byte) error {
	s := value.NewScanner(data)
	if !s.Null() {
		s.Object(func(key []byte) {
			switch {
			case value.KeyMatches(key, "txn"):
				s.StringInto(&r.Txn)
			case value.KeyMatches(key, "committed"):
				s.BoolInto(&r.Committed)
			case value.KeyMatches(key, "results"):
				r.Results = scanSlice(&s, r.Results, func(v *value.Value) { *v = s.Value() })
			case value.KeyMatches(key, "error"):
				s.StringInto(&r.Error)
			case value.KeyMatches(key, "code"):
				s.StringInto(&r.Code)
			case value.KeyMatches(key, "retryable"):
				s.BoolInto(&r.Retryable)
			default:
				s.Skip()
			}
		})
	}
	s.End()
	return s.Err()
}
