package jsonscan

import (
	"encoding/json"
	"testing"
)

// TestTextMatchesJSON: a literal Text accepts decodes to what json.Unmarshal
// makes of it, and the ones that need a substitution or are malformed are
// declined. The differential fuzz targets of store and wal drive the scanner
// much harder; this is the table a reader can check by eye.
func TestTextMatchesJSON(t *testing.T) {
	for _, tc := range []struct {
		lit    string
		accept bool
	}{
		{`""`, true},
		{`"plain"`, true},
		{`"caf\u00e9 数 \u2028"`, true},
		{"\"caf\xc3\xa9 raw\"", true},
		{`"\" \\ \/ \b \f \n \r \t"`, true},
		{`"\u003c\u003E\u0026\u0000\uffff"`, true},
		{`"a\u007fb"`, true},
		{`"\ud83d\ude00"`, false}, // a surrogate pair: encoding/json combines it
		{`"\ud83d"`, false},       // a lone half: encoding/json substitutes U+FFFD
		{"\"\xff\"", false},       // not UTF-8: likewise
		{"\"a\x01b\"", false},     // a raw control byte is not JSON
		{`"\x"`, false},
		{`"\u12"`, false},
		{`"\u12g4"`, false},
		{`"open`, false},
		{`"trailing\`, false},
		{`plain`, false},
		{`null`, false},
	} {
		s := New([]byte(tc.lit))
		got, ok := s.Text()
		if ok != tc.accept {
			t.Errorf("Text(%s) accepted = %v, want %v", tc.lit, ok, tc.accept)
			continue
		}
		if !ok {
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(tc.lit), &want); err != nil {
			t.Errorf("Text accepted %s, json.Unmarshal refuses it: %v", tc.lit, err)
		} else if string(got) != want || !s.AtEnd() {
			t.Errorf("Text(%s) = %q, json.Unmarshal makes it %q", tc.lit, got, want)
		}
	}
}

func TestMembersElementsAndSpans(t *testing.T) {
	s := New([]byte(`{"a":["x","y"],"b":{"k":"]}\""},"c":null}`))
	if !s.Lit("{") {
		t.Fatal("no opening brace")
	}
	var keys, elems []string
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok {
			t.Fatalf("Member failed after %v", keys)
		}
		if done {
			break
		}
		keys = append(keys, string(key))
		switch string(key) {
		case "a":
			if !s.Lit("[") {
				t.Fatal("no array")
			}
			for first := true; ; first = false {
				done, ok := s.Elem(first)
				if !ok {
					t.Fatalf("Elem failed after %v", elems)
				}
				if done {
					break
				}
				v, _ := s.String()
				elems = append(elems, v)
			}
		case "b":
			if span, ok := s.Span(); !ok || string(span) != `{"k":"]}\""}` {
				t.Fatalf("Span = %s, %v", span, ok)
			}
		case "c":
			if !s.Lit("null") {
				t.Fatal("no null")
			}
		}
	}
	if len(keys) != 3 || len(elems) != 2 || elems[1] != "y" || !s.AtEnd() {
		t.Fatalf("keys %v, elements %v, at end %v", keys, elems, s.AtEnd())
	}

	for _, declined := range []string{`{,"a":1}`, `{"a":1,}`, `{"a" :1}`, `{"\u0061":1}`, `{a:1}`} {
		s := New([]byte(declined))
		s.Lit("{")
		_, _, ok := s.Member(true)
		if ok {
			s.Lit("1")
			_, _, ok = s.Member(false)
		}
		if ok {
			t.Errorf("Member accepted %s", declined)
		}
	}
	if s := New([]byte(`[]`)); !s.Lit("[") {
		t.Fatal("no array")
	} else if _, ok := s.Elem(true); ok {
		t.Error("Elem accepted an empty array")
	}
	for _, unfinished := range []string{`{"a":[1,2}`, `["a`, `{"a":"\`, `7`} {
		s := New([]byte(unfinished))
		if span, ok := s.Span(); ok {
			t.Errorf("Span(%s) = %s", unfinished, span)
		}
	}
}

// TestStringSharesWhatTheCallerHolds: the point of String's arguments is
// that the returned string is the caller's, not a second copy.
func TestStringSharesWhatTheCallerHolds(t *testing.T) {
	held := string([]byte("urn:uuid:held"))
	lit := []byte(`"urn:uuid:held"`)
	allocs := testing.AllocsPerRun(100, func() {
		s := New(lit)
		if got, ok := s.String("other", held); !ok || got != held {
			t.Fatalf("String = %q, %v", got, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("String allocated %v times for a value the caller holds", allocs)
	}
}
