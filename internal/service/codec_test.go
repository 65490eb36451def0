package service_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"weihl83/internal/service"
	"weihl83/internal/value"
)

// The reference for the /v1/tx codec is encoding/json on the wire structs
// themselves: their tags are the wire format, and the Value inside them is
// held to its own reflection reference by value.FuzzValueJSON.

// transferRequest and transferResponse are the ledger's service transfer:
// a withdraw and a deposit, both answered ok.
var (
	transferRequest = service.TxRequest{Tenant: "bank", Ops: []service.OpRequest{
		{Object: "acct17", Op: "withdraw", Arg: value.Int(25)},
		{Object: "acct803", Op: "deposit", Arg: value.Int(25)},
	}}
	transferResponse = service.TxResponse{Txn: "t123456", Committed: true, Results: []value.Value{value.Unit(), value.Unit()}}
)

func txRequestSeeds(t testing.TB) []string {
	pretty, err := json.MarshalIndent(transferRequest, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := json.Marshal(transferRequest)
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(bench), string(pretty),
		`{"tenant":"bank","read_only":true,"ops":[{"object":"acct1","op":"balance","arg":{"kind":"nil"}},{"object":"acct2","op":"balance","arg":{"kind":"nil"}}]}`,
		`{"ops":[{"arg":{"int":1,"kind":"int"},"x":[1,{"y":2}],"op":"deposit","object":"a"}],"extra":{"a":null},"read_only":false,"tenant":"t"}`,
		`{"TENANT":"t","Read_Only":true,"OPS":[{"OBJECT":"a","Op":"balance","ARG":{"KIND":"nil"}}]}`,
		"{\"tenant\":\"t\",\"\xc5\xbfkip\":1,\"ops\":[{\"object\":\"\xe2\x84\xaa\",\"op\":\"deposit\",\"arg\":{\"kind\":\"unit\"}}]}",
		`{"tenant":"t","ops":null}`, `{"tenant":"t","ops":[null,{"object":"a","op":"balance","arg":null}]}`,
		`{"tenant":null,"read_only":null,"ops":[{"object":null,"op":null}]}`,
		`{"tenant":"caf\u00e9","ops":[{"object":"a\"b\\","op":"deposit","arg":{"kind":"string","str":"<\u00e9>&"}}]}`,
		"{\"tenant\":\"\xff\xfe\",\"ops\":[{\"object\":\"a\xc3\",\"op\":\"deposit\",\"arg\":{\"kind\":\"int\",\"int\":1}}]}",
		`{"tenant":"t","ops":[{"object":"a","op":"deposit","arg":{"kind":"int","int":1e3}}]}`,
		`{"tenant":"t","ops":[{"object":"a","op":"deposit","arg":{"kind":"int","int":1.0}}]}`,
		`{"tenant":"t","ops":[{"object":"a","op":"deposit","arg":{"kind":"int","int":9223372036854775808}}]}`,
		`{"ops":[{"object":"a","op":"x"},{"object":"b","op":"y"}],"ops":[{"op":"z"}],"ops":[{"op":"p"},{"arg":{"kind":"unit"}}]}`,
		`{"ops":[{"object":"a"}],"ops":[],"ops":[{"op":"z"}]}`,
		`{"tenant":"t","ops":[]}`, `null`, `{}`, ` {} `, `[]`, `""`, ``,
		string(bench) + string(bench), string(bench) + "\n\t ", `{"tenant":"t"} x`,
		`{"tenant":5}`, `{"read_only":"true"}`, `{"ops":{}}`, `{"ops":[1]}`, `{"ops":[{"arg":5}]}`,
		`{"tenant":"t",}`, `{"tenant" "t"}`, `{"tenant":"t"`, `{"ops":[{"object":"a"},]}`,
	}
}

func txResponseSeeds(t testing.TB) []string {
	bench, err := json.Marshal(transferResponse)
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(bench),
		`{"txn":"t9","committed":true,"results":[{"kind":"int","int":100},{"kind":"int","int":-3}]}`,
		`{"committed":false,"error":"lock <conflict> & wait","code":"conflict","retryable":true}`,
		`{"retryable":true,"CODE":"shed","Error":"admission refused","COMMITTED":false,"unknown":[{}]}`,
		`{"results":null}`, `{"results":[]}`, `{"results":[null,{"kind":"unit"}]}`,
		`{"results":[{"kind":"int","int":1},{"kind":"int","int":2}],"results":[{"kind":"unit"}]}`,
		`{"txn":null,"committed":null,"results":[{"kind":"int","int":1}],"results":null}`,
		`{"error":"caf\u00e9\ud800","code":"\/x"}`, "{\"error\":\"\xff\"}",
		`{"results":[{"kind":"int","int":1e3}]}`, `{"results":[{"kind":"int","int":1.5}]}`,
		`{"committed":1}`, `{"results":{}}`, `{"results":[5]}`, `null`, `{}`, `[]`, ``,
		string(bench) + string(bench), `{"committed":true}]`,
	}
}

// FuzzTxRequestDecode holds the /v1/tx request codec to encoding/json: on
// any bytes both accept or both refuse, accepted documents decode to the
// same TxRequest, and the encoder writes the reference's bytes, for the
// decoded request and for one whose strings are the raw input.
func FuzzTxRequestDecode(f *testing.F) {
	for _, s := range txRequestSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, got service.TxRequest
		refErr := json.Unmarshal(data, &ref)
		gotErr := got.DecodeJSON(data)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference error %v, codec error %v", data, refErr, gotErr)
		}
		if refErr == nil && !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: decoded %#v, reference %#v", data, got, ref)
		}
		raw := string(data)
		for _, req := range []service.TxRequest{got, {Tenant: raw, ReadOnly: true, Ops: []service.OpRequest{
			{Object: raw, Op: raw, Arg: value.Str(raw)},
		}}} {
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if have := req.AppendJSON(nil); !bytes.Equal(have, want) {
				t.Fatalf("%#v: encoded %s, reference %s", req, have, want)
			}
		}
	})
}

// FuzzTxResponseDecode is FuzzTxRequestDecode for the response.
func FuzzTxResponseDecode(f *testing.F) {
	for _, s := range txResponseSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, got service.TxResponse
		refErr := json.Unmarshal(data, &ref)
		gotErr := got.DecodeJSON(data)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference error %v, codec error %v", data, refErr, gotErr)
		}
		if refErr == nil && !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: decoded %#v, reference %#v", data, got, ref)
		}
		raw := string(data)
		for _, resp := range []service.TxResponse{got, {Txn: raw, Error: raw, Code: raw, Retryable: true, Results: []value.Value{value.Str(raw)}}} {
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if have := resp.AppendJSON(nil); !bytes.Equal(have, want) {
				t.Fatalf("%#v: encoded %s, reference %s", resp, have, want)
			}
		}
	})
}

// BenchmarkTxCodec encodes and decodes the ledger's transfer request and
// its response — the wire work of one transaction, both ends — with the
// hand-written codec and with the encoding/json reference.
func BenchmarkTxCodec(b *testing.B) {
	b.Run("codec=hand", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = transferRequest.AppendJSON(buf[:0])
			var req service.TxRequest
			if err := req.DecodeJSON(buf); err != nil {
				b.Fatal(err)
			}
			buf = transferResponse.AppendJSON(buf[:0])
			var resp service.TxResponse
			if err := resp.DecodeJSON(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, err := json.Marshal(transferRequest)
			if err != nil {
				b.Fatal(err)
			}
			var req service.TxRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				b.Fatal(err)
			}
			if raw, err = json.Marshal(transferResponse); err != nil {
				b.Fatal(err)
			}
			var resp service.TxResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
