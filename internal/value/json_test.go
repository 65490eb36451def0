package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// refValue carries a Value through the reflection codec the hand-written
// one replaced: encoding/json over jsonValue. It is the reference
// FuzzValueJSON holds the codec to.
type refValue struct{ v Value }

// jsonValue is the reflection codec's wire form of a Value. Exactly one
// payload field is set, selected by Kind.
type jsonValue struct {
	Kind string  `json:"kind"`
	Int  *int64  `json:"int,omitempty"`
	Int2 *int64  `json:"int2,omitempty"`
	Bool *bool   `json:"bool,omitempty"`
	Str  *string `json:"str,omitempty"`
}

func (r refValue) MarshalJSON() ([]byte, error) {
	v := r.v
	jv := jsonValue{Kind: v.kind.String()}
	switch v.kind {
	case KindInt:
		jv.Int = &v.i
	case KindBool:
		jv.Bool = &v.b
	case KindString:
		jv.Str = &v.s
	case KindPair:
		jv.Int = &v.i
		jv.Int2 = &v.j
	}
	return json.Marshal(jv)
}

func (r *refValue) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return fmt.Errorf("value: decode: %w", err)
	}
	switch jv.Kind {
	case "nil", "":
		r.v = Nil()
	case "unit":
		r.v = Unit()
	case "int":
		if jv.Int == nil {
			return fmt.Errorf("value: int value missing payload")
		}
		r.v = Int(*jv.Int)
	case "bool":
		if jv.Bool == nil {
			return fmt.Errorf("value: bool value missing payload")
		}
		r.v = Bool(*jv.Bool)
	case "string":
		if jv.Str == nil {
			return fmt.Errorf("value: string value missing payload")
		}
		r.v = Str(*jv.Str)
	case "pair":
		if jv.Int == nil || jv.Int2 == nil {
			return fmt.Errorf("value: pair value missing payload")
		}
		r.v = Pair(*jv.Int, *jv.Int2)
	default:
		return fmt.Errorf("value: unknown kind %q", jv.Kind)
	}
	return nil
}

// valueSeeds are documents the fuzzer starts from: every kind, the
// reflection codec's tolerance (whitespace, field order, unknown fields,
// folded keys, null, escapes) and its refusals.
func valueSeeds() []string {
	return []string{
		`{"kind":"int","int":42}`, `{"kind":"pair","int":1,"int2":-2}`,
		`{"kind":"bool","bool":false}`, `{"kind":"string","str":""}`,
		`{"kind":"unit"}`, `{"kind":"nil"}`, `null`, `{}`, ` {"kind":"unit"} ` + "\n",
		"{\n  \"kind\": \"pair\",\n\t\"int\": 1 ,\r\n  \"int2\" : 2\n}",
		`{"int":5,"kind":"int"}`, `{"kind":"int","x":[1,{"y":null},"z",true],"int":3}`,
		`{"KIND":"int","Int":7}`, `{"Kind":"pair","INT":1,"iNT2":2}`,
		"{\"\xe2\x84\xaaind\":\"string\",\"\xc5\xbftr\":\"kelvin and long s\"}",
		`{"kind":"int","int":null}`, `{"kind":null}`, `{"kind":"int","kind":null,"int":1}`,
		`{"kind":"wat","kind":"int","int":1}`, `{"int":1,"int":null,"kind":"int"}`,
		`{"kind":"string","str":"caf\u00e9"}`, `{"kind":"string","str":"a\"b\\c\/d\b\f\n\r\t"}`,
		`{"kind":"string","str":"\ud83d\ude00\ud800x\udc00\ud800\ud800\udc00"}`,
		`{"\u006bind":"string","str":"<a&b>\u2028\u2029"}`,
		"{\"kind\":\"string\",\"str\":\"\xff\xfe\xed\xa0\x80ok\x7f\"}",
		`{"kind":"int","int":1e3}`, `{"kind":"int","int":1.0}`, `{"kind":"int","int":-0}`,
		`{"kind":"int","int":9223372036854775807}`, `{"kind":"int","int":9223372036854775808}`,
		`{"kind":"int","int":-9223372036854775808}`, `{"kind":"int","int":-9223372036854775809}`,
		`{"kind":"int","int":01}`, `{"kind":"int","int":-}`, `{"kind":"int","int":"5"}`,
		`{"kind":"wat"}`, `{"kind":"int"}`, `{"kind":"pair","int":1}`, `[1,2]`, `"int"`, `5`, ``,
		`{"kind":"int","int":5,}`, `{"kind":"int","int":5} x`, `{"kind":"unit"}{"kind":"unit"}`,
		`{"kind":"bool","bool":"true"}`, `{"kind":"bool","bool":nul}`, "{\"kind\":\"string\",\"str\":\"a\x01\"}",
		`{"kind":"string","str":"\x"}`, `{"kind":"string","str":"\u12"}`, `{"kind":"unit"`,
	}
}

// FuzzValueJSON holds the hand-written codec to the reflection codec: on
// any bytes both accept or both refuse, accepted documents decode to the
// same Value, and every Value encodes to the reference's bytes — the
// decoded one, and a string Value holding the raw input, so invalid UTF-8
// reaches the encoder too.
func FuzzValueJSON(f *testing.F) {
	for _, s := range valueSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refValue
		refErr := json.Unmarshal(data, &ref)
		var got Value
		gotErr := got.UnmarshalJSON(data)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference error %v, codec error %v", data, refErr, gotErr)
		}
		if refErr == nil && got != ref.v {
			t.Fatalf("%q: decoded %#v, reference %#v", data, got, ref.v)
		}
		for _, v := range []Value{got, Str(string(data))} {
			want, err := json.Marshal(refValue{v})
			if err != nil {
				t.Fatal(err)
			}
			if have := v.AppendJSON(nil); !bytes.Equal(have, want) {
				t.Fatalf("%#v: encoded %s, reference %s", v, have, want)
			}
			if have, err := json.Marshal(v); err != nil || !bytes.Equal(have, want) {
				t.Fatalf("%#v: json.Marshal gave %s (%v), reference %s", v, have, err, want)
			}
		}
	})
}

// TestValueJSONDepth: the codec refuses a document nested deeper than
// encoding/json allows and accepts one at the limit. (Kept out of the fuzz
// corpus: minimising 20 kB inputs stalls the fuzzer.)
func TestValueJSONDepth(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		data := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"kind":"unit"}`)
		var ref refValue
		refErr := json.Unmarshal(data, &ref)
		var got Value
		gotErr := got.UnmarshalJSON(data)
		if (refErr == nil) != (gotErr == nil) || got != ref.v {
			t.Errorf("depth %d: reference (%v, %v), codec (%v, %v)", depth+1, ref.v, refErr, got, gotErr)
		}
	}
}
