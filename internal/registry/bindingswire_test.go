package registry

// The hand-written GetBindings wire code against its reference: whatever
// scanGetBindings accepts, soap.Unmarshal decodes to the same request, and
// whatever appendBindingsEnvelope writes, soap.Marshal writes too.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/soap"
)

// canonicalRequest is the envelope soap.Marshal emits for req.
func canonicalRequest(t testing.TB, req *GetBindingsRequest) []byte {
	t.Helper()
	env, err := soap.Marshal(&soapRequest{Bindings: req})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// checkScan runs the decode hook on raw and, when it accepts, requires the
// reference decoder to agree with it.
func checkScan(t testing.TB, raw []byte) (accepted bool) {
	t.Helper()
	var got soapRequest
	if !scanRegistryRequest(raw, &got) {
		if !reflect.DeepEqual(got, soapRequest{}) {
			t.Fatalf("declined %q but left %+v behind", raw, got)
		}
		return false
	}
	var want soapRequest
	if err := soap.Unmarshal(raw, &want); err != nil {
		t.Fatalf("scanner accepted %q, soap.Unmarshal rejects it: %v", raw, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner and soap.Unmarshal disagree on %q:\nscanner   %+v\nunmarshal %+v", raw, got.Bindings, want.Bindings)
	}
	return true
}

func TestScanGetBindingsAccepts(t *testing.T) {
	byName := string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "Adder"}))
	byID := string(canonicalRequest(t, &GetBindingsRequest{ServiceID: "urn:uuid:5b0f7a86-8a3c-4b6a-9c55-0e1a5f5d7f10"}))
	cases := map[string]string{
		"by name":             byName,
		"by id":               byID,
		"self-closing":        strings.Replace(byName, "></GetBindingsRequest>", "/>", 1),
		"no whitespace":       strings.NewReplacer("\n ", "", "\n", "").Replace(byName),
		"crlf and tabs":       strings.NewReplacer("\n ", "\r\n\t", "\n", "\r\n").Replace(byName) + "\r\n",
		"whitespace in body":  strings.NewReplacer("<Body>", "<Body>\n  ", "<GetB", "\n   <GetB", "</RegistryRequest>", "\n  </RegistryRequest>\n ").Replace(byName),
		"non-ascii name":      string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "Añadir 加法 \U0001F9EE"})),
		"markup-free symbols": strings.Replace(byName, "Adder", "a>b 'c' ]]> ?> /> d=\u007f\uFFFD", 1),
		"mentions Fault":      strings.Replace(byName, "Adder", "Fault", 1),
	}
	for name, env := range cases {
		if !checkScan(t, []byte(env)) {
			t.Errorf("%s: declined %q", name, env)
		}
	}
	byIDFlag, value, ok := scanGetBindings([]byte(byID))
	if !ok || !byIDFlag || string(value) != "urn:uuid:5b0f7a86-8a3c-4b6a-9c55-0e1a5f5d7f10" {
		t.Fatalf("by id scanned as (%v, %q, %v)", byIDFlag, value, ok)
	}
	if n := testing.AllocsPerRun(100, func() { scanGetBindings([]byte(byName)) }); n != 0 {
		t.Errorf("scanGetBindings allocates %v times, want 0", n)
	}
}

// TestScanGetBindingsDeclines: each of these is a request encoding/xml
// either decodes differently from a plain copy or the scanner has no
// business judging; all must reach soap.Unmarshal untouched.
func TestScanGetBindingsDeclines(t *testing.T) {
	byName := string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "Adder"}))
	sub := func(old, new string) string {
		if !strings.Contains(byName, old) {
			t.Fatalf("canonical envelope has no %q", old)
		}
		return strings.Replace(byName, old, new, 1)
	}
	cases := map[string]string{
		"empty":                  "",
		"entity in value":        string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "A&B"})),
		"character reference":    sub("Adder", "Add&#101;r"),
		"both attributes":        string(canonicalRequest(t, &GetBindingsRequest{ServiceName: "Adder", ServiceID: "urn:uuid:1"})),
		"unknown attribute":      sub(`serviceName="Adder"`, `serviceName="Adder" trace="1"`),
		"empty value":            sub("Adder", ""),
		"no attribute":           sub(` serviceName="Adder"`, ""),
		"single quotes":          sub(`"Adder"`, `'Adder'`),
		"less-than in value":     sub("Adder", "a<b"),
		"tab in value":           sub("Adder", "a\tb"),
		"newline in value":       sub("Adder", "a\nb"),
		"carriage return":        sub("Adder", "a\rb"),
		"nul in value":           sub("Adder", "a\x00b"),
		"invalid utf-8":          sub("Adder", "a\xffb"),
		"truncated rune":         sub("Adder", "a\xe5\x8a"),
		"surrogate":              sub("Adder", "a\xed\xa0\x80b"),
		"U+FFFE":                 sub("Adder", "a\uFFFEb"),
		"U+FFFF":                 sub("Adder", "a\uFFFFb"),
		"byte order mark":        "\uFEFF" + byName,
		"leading whitespace":     "\n" + byName,
		"no declaration":         strings.TrimPrefix(byName, `<?xml version="1.0" encoding="UTF-8"?>`+"\n"),
		"other declaration":      sub(`encoding="UTF-8"`, `encoding="utf-8"`),
		"prefixed namespace":     strings.NewReplacer("<Envelope xmlns=", "<soapenv:Envelope xmlns:soapenv=", "<Body>", "<soapenv:Body>", "</Body>", "</soapenv:Body>", "</Envelope>", "</soapenv:Envelope>").Replace(byName),
		"extra namespace":        sub(`<Envelope `, `<Envelope xmlns:x="urn:x" `),
		"no namespace":           sub(` xmlns="`+soap.NS+`"`, ""),
		"header element":         sub("<Body>", "<Header></Header><Body>"),
		"comment":                sub("<Body>", "<!-- hot --><Body>"),
		"space inside tag":       sub("<Body>", "<Body >"),
		"space before close":     sub(`"Adder">`, `"Adder" >`),
		"two spaces before attr": sub("<GetBindingsRequest ", "<GetBindingsRequest  "),
		"content in element":     sub("></GetBindingsRequest>", "> </GetBindingsRequest>"),
		"second request":         sub("</RegistryRequest>", `<GetBindingsRequest serviceName="B"/></RegistryRequest>`),
		"other protocol element": sub("<GetBindingsRequest ", `<GetObjectRequest id="x"/><GetBindingsRequest `),
		"get object":             strings.NewReplacer("GetBindingsRequest", "GetObjectRequest", "serviceName", "id").Replace(byName),
		"text after the end":     byName + "x",
		"second envelope":        byName + byName,
		"unterminated value":     byName[:strings.Index(byName, "Adder")+3],
	}
	for name, env := range cases {
		if checkScan(t, []byte(env)) {
			t.Errorf("%s: accepted %q", name, env)
		}
	}
	for i := 0; i < len(byName); i++ {
		if checkScan(t, []byte(byName[:i])) {
			t.Errorf("accepted the envelope cut at byte %d: %q", i, byName[:i])
		}
	}
}

// FuzzScanGetBindings: whenever the scanner accepts an envelope,
// soap.Unmarshal accepts it too and decodes the same request.
func FuzzScanGetBindings(f *testing.F) {
	byName := canonicalRequest(f, &GetBindingsRequest{ServiceName: "Adder"})
	f.Add(byName)
	f.Add(canonicalRequest(f, &GetBindingsRequest{ServiceID: "urn:uuid:5b0f7a86-8a3c-4b6a-9c55-0e1a5f5d7f10"}))
	f.Add(canonicalRequest(f, &GetBindingsRequest{ServiceName: "A&B <\"'>\t\n\r"}))
	f.Add(canonicalRequest(f, &GetBindingsRequest{ServiceName: "Adder", ServiceID: "urn:uuid:1"}))
	// Cut at every element boundary.
	for i, c := range byName {
		if c == '<' || c == '>' {
			f.Add(byName[:i])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkScan(t, raw)
	})
}

// checkEnvelope requires the writer's bytes to be soap.Marshal's.
func checkEnvelope(t testing.TB, ans *GetBindingsResponse) {
	t.Helper()
	want, err := soap.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	got := appendBindingsEnvelope(prefix, ans)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("writer overwrote what was in the buffer: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("envelope of %+v differs:\nwriter  %q\nmarshal %q", ans, got, want)
	}
}

func TestAppendBindingsEnvelope(t *testing.T) {
	for _, ans := range []*GetBindingsResponse{
		{},
		{URIs: []string{}},
		{URIs: []string{"http://h00.sdsu.edu:8080/Adder/addService"}, Filtered: true, Eligible: 1, WindowOK: true},
		{URIs: []string{"http://a/1", "http://b/2", "http://c/3"}, Filtered: true, Eligible: 3, Unknown: 12, Ineligible: 345, WindowOK: true},
		{URIs: []string{""}, Eligible: -1, Unknown: -1 << 63, Ineligible: 1<<63 - 1},
		{URIs: []string{`http://h/?a=1&b="2"&c='3'&d=<4>`, "tab\there", "line\nfeed", "carriage\rreturn", "]]>"}},
		{URIs: []string{"nul\x00", "bell\x07", "del\x7f", "bad\xffbyte", "cut\xe5\x8a", "surrogate\xed\xa0\x80", "\uFFFE", "\uFFFF", "\uFFFD", "añadir 加法 \U0001F9EE"}},
	} {
		checkEnvelope(t, ans)
	}
	ans := &GetBindingsResponse{URIs: []string{"http://h00.sdsu.edu:8080/Adder/addService", "http://h01.sdsu.edu:8080/Adder/addService"}, Filtered: true, Eligible: 2, WindowOK: true}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { appendBindingsEnvelope(buf, ans) }); n != 0 {
		t.Errorf("appendBindingsEnvelope allocates %v times into a buffer with room, want 0", n)
	}
}

// FuzzAppendBindingsEnvelope: the writer's bytes are soap.Marshal's for
// arbitrary URI strings and scalar values.
func FuzzAppendBindingsEnvelope(f *testing.F) {
	f.Add("http://h00.sdsu.edu:8080/Adder/addService", "http://h01.sdsu.edu:8080/Adder/addService", uint8(2), true, 2, 0, 0, true)
	f.Add("", "", uint8(0), false, 0, 0, 0, false)
	f.Fuzz(func(t *testing.T, a, b string, n uint8, filtered bool, eligible, unknown, ineligible int, windowOK bool) {
		checkEnvelope(t, fuzzedAnswer(a, b, n, filtered, eligible, unknown, ineligible, windowOK))
	})
}

// fuzzedAnswer builds the answer both writers' fuzz targets render.
func fuzzedAnswer(a, b string, n uint8, filtered bool, eligible, unknown, ineligible int, windowOK bool) *GetBindingsResponse {
	ans := &GetBindingsResponse{Filtered: filtered, Eligible: eligible, Unknown: unknown, Ineligible: ineligible, WindowOK: windowOK}
	// nil, empty, then one to three of the strings.
	switch n % 5 {
	case 1:
		ans.URIs = []string{}
	case 2:
		ans.URIs = []string{a}
	case 3:
		ans.URIs = []string{a, b}
	case 4:
		ans.URIs = []string{b, a + b, a}
	}
	return ans
}

// checkJSON requires the writer's bytes to be those of the encoder every
// other REST route answers through.
func checkJSON(t testing.TB, ans *GetBindingsResponse) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(ans); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	got := appendBindingsJSON(prefix, ans)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("writer overwrote what was in the buffer: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("body of %+v differs:\nwriter  %q\nencoder %q", ans, got, want.Bytes())
	}
}

func TestAppendBindingsJSON(t *testing.T) {
	for _, ans := range []*GetBindingsResponse{
		{}, // "uris": null
		{URIs: []string{}},
		{URIs: []string{"http://h00.sdsu.edu:8080/Adder/addService"}, Filtered: true, Eligible: 1, WindowOK: true},
		{URIs: []string{"http://a/1", "http://b/2", "http://c/3"}, Filtered: true, Eligible: 3, Unknown: 12, Ineligible: 345, WindowOK: true},
		{URIs: []string{""}, Eligible: -1, Unknown: -1 << 63, Ineligible: 1<<63 - 1},
		{URIs: []string{`http://h/?a=1&b="2"&c='3'&d=<4>`, `back\slash`, "tab\there", "line\nfeed", "carriage\rreturn", "back\bspace form\ffeed", "/solidus"}},
		{URIs: []string{"nul\x00", "bell\x07", "unit\x1f", "del\x7f", "tilde~", "bad\xffbyte", "cut\xe5\x8a", "surrogate\xed\xa0\x80"}},
		{URIs: []string{"line\u2028separator", "paragraph\u2029separator", "\uFFFD", "\uFFFE", "añadir 加法 \U0001F9EE"}},
	} {
		checkJSON(t, ans)
	}
	ans := &GetBindingsResponse{URIs: []string{"http://h00.sdsu.edu:8080/Adder/addService", "http://h01.sdsu.edu:8080/Adder/addService"}, Filtered: true, Eligible: 2, WindowOK: true}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { appendBindingsJSON(buf, ans) }); n != 0 {
		t.Errorf("appendBindingsJSON allocates %v times into a buffer with room, want 0", n)
	}
}

// FuzzAppendBindingsJSON: the writer's bytes are the encoder's for
// arbitrary URI strings and scalar values.
func FuzzAppendBindingsJSON(f *testing.F) {
	f.Add("http://h00.sdsu.edu:8080/Adder/addService", "http://h01.sdsu.edu:8080/Adder/addService", uint8(2), true, 2, 0, 0, true)
	f.Add("", "", uint8(0), false, 0, 0, 0, false)
	f.Fuzz(func(t *testing.T, a, b string, n uint8, filtered bool, eligible, unknown, ineligible int, windowOK bool) {
		checkJSON(t, fuzzedAnswer(a, b, n, filtered, eligible, unknown, ineligible, windowOK))
	})
}
