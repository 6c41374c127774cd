package registry

// The hand-written GetBindings wire code against its reference: whatever
// scanGetBindings accepts, soap.Unmarshal decodes to the same request, and
// whatever appendBindingsEnvelope writes, soap.Marshal writes too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simclock"
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

// canonicalWrite is the envelope soap.Marshal emits for a write request.
func canonicalWrite(t testing.TB, req *soapRequest) []byte {
	t.Helper()
	env, err := soap.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// benchService is a service as the benchmark publishes it: four bindings,
// and a constraint in the description, which the wire escapes.
func benchService() WireObject {
	o := WireObject{
		Kind: "Service", ID: "urn:uuid:3f1c2d4e-5a6b-4c7d-8e9f-0a1b2c3d4e5f", LID: "urn:uuid:3f1c2d4e-5a6b-4c7d-8e9f-0a1b2c3d4e5f",
		Status: "Submitted", Version: "1.1", Name: "new-000001",
		Description: "benchmark service new-000001 <constraint><cpuLoad>load ls 1.5</cpuLoad><memory>memory gr 2GB</memory></constraint>",
	}
	for i := 0; i < 4; i++ {
		o.Bindings = append(o.Bindings, WireBinding{
			ID:        fmt.Sprintf("urn:uuid:7a8b9c0d-1e2f-4a3b-8c4d-5e6f7a8b9c%02d", i),
			AccessURI: fmt.Sprintf("http://10.0.0.%d:8080/new-000001/run", i+1),
		})
	}
	return o
}

// writeShapes are the write requests publishers send: the benchmark's
// submit and update of a four-binding service, what jaxr publishes for the
// quickstart (an organization, a constrained service, their association),
// and the text encoding/xml has to escape.
func writeShapes() map[string]*soapRequest {
	update := benchService()
	update.Description = "benchmark service new-000001 <constraint><cpuLoad>load ls 0.5</cpuLoad><memory>memory gr 1GB</memory><swapmemory>swapmemory gr 512MB</swapmemory></constraint>"
	org := WireObject{Kind: "Organization", ID: "urn:uuid:org", LID: "urn:uuid:org", Status: "Submitted", Version: "1.1", Name: "San Diego State University (SDSU)"}
	svc := WireObject{Kind: "Service", ID: "urn:uuid:svc", LID: "urn:uuid:svc", Status: "Submitted", Version: "1.1", Name: "ServiceAdder",
		Description: "Adds numbers. <constraint>\n\t  <cpuLoad>load ls 1.0</cpuLoad>\n\t</constraint>",
		Bindings: []WireBinding{
			{ID: "urn:uuid:b1", AccessURI: "http://thermo.sdsu.edu:8080/Adder/addService"},
			{ID: "urn:uuid:b2", AccessURI: "http://exergy.sdsu.edu:8080/Adder/addService", TargetBinding: "urn:uuid:b1", Description: "second"},
		}}
	assoc := WireObject{Kind: "Association", ID: "urn:uuid:assoc", LID: "urn:uuid:assoc", Status: "Submitted", Version: "1.1", Name: "OffersService",
		AssociationType: "OffersService", SourceID: "urn:uuid:org", TargetID: "urn:uuid:svc"}
	text := WireObject{Kind: "Service", ID: "", Name: "Añadir 加法 \U0001F9EE \"q\" 'a'", Description: "A&B <c> tab\tline\ncr\r ]]>",
		Bindings: []WireBinding{{AccessURI: "http://h/?a=1&b=2"}}}
	return map[string]*soapRequest{
		"bench submit": {Submit: &SubmitObjectsRequest{Session: "4f9c0d1e2b3a", Objects: []WireObject{benchService()}}},
		"bench update": {Update: &UpdateObjectsRequest{Session: "4f9c0d1e2b3a", Objects: []WireObject{update}}},
		"jaxr submit":  {Submit: &SubmitObjectsRequest{Session: "token", Objects: []WireObject{org, svc, assoc}}},
		"jaxr update":  {Update: &UpdateObjectsRequest{Session: "token", Objects: []WireObject{org}}},
		"escaped text": {Submit: &SubmitObjectsRequest{Session: "a&b", Objects: []WireObject{text}}},
		"no objects":   {Submit: &SubmitObjectsRequest{Session: "s"}},
		"no session":   {Update: &UpdateObjectsRequest{Objects: []WireObject{{Kind: "Organization", Name: "X"}}}},
		"every attribute": {Submit: &SubmitObjectsRequest{Session: "s", Objects: []WireObject{{
			Kind: "k", ID: "i", LID: "l", Status: "s", Owner: "o", Home: "h", Version: "v", ParentID: "p",
			Alias: "a", FirstName: "f", MiddleName: "m", LastName: "n", AssociationType: "t", SourceID: "so",
			TargetID: "ta", ExternalURI: "e", QuerySyntax: "q", Code: "c", Path: "/p",
		}}}},
	}
}

// checkWriteScan runs the write scanner on raw and, when it accepts,
// requires the reference decoder to agree with it.
func checkWriteScan(t testing.TB, raw []byte) (accepted bool) {
	t.Helper()
	var got soapRequest
	if !scanWriteRequest(raw, &got) {
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
		t.Fatalf("scanner and soap.Unmarshal disagree on %q:\nscanner   %+v %+v\nunmarshal %+v %+v", raw, got.Submit, got.Update, want.Submit, want.Update)
	}
	return true
}

func TestScanWriteRequestAccepts(t *testing.T) {
	for name, req := range writeShapes() {
		env := canonicalWrite(t, req)
		if !checkWriteScan(t, env) {
			t.Errorf("%s: declined %q", name, env)
		}
		var via soapRequest
		if !scanRegistryRequest(env, &via) || (via.Submit == nil) == (via.Update == nil) || via.Bindings != nil {
			t.Errorf("%s: the decode hook did not take it as one write: %+v", name, via)
		}
	}
	submit := string(canonicalWrite(t, writeShapes()["bench submit"]))
	for name, env := range map[string]string{
		"whitespace between elements": strings.NewReplacer("><Registry", ">\n  <Registry", "><Name>", ">\r\n\t<Name>", "><ServiceBinding", "> <ServiceBinding", "></ServiceBinding>", ">\n</ServiceBinding>\n", "</RegistryObjectList>", "\n</RegistryObjectList>\n").Replace(submit),
		"self-closing binding":        strings.Replace(submit, "></ServiceBinding>", "/>", -1),
		"attributes reordered":        strings.NewReplacer(`<RegistryObject kind="Service" `, `<RegistryObject `, `versionName="1.1">`, `versionName="1.1" kind="Service">`).Replace(submit),
		"empty list":                  submit[:strings.Index(submit, "<RegistryObjectList>")] + "<RegistryObjectList></RegistryObjectList></SubmitObjectsRequest></RegistryRequest></Body>\n</Envelope>",
		"self-closing request":        submit[:strings.Index(submit, "<SubmitObjectsRequest")] + `<SubmitObjectsRequest session="s"/></RegistryRequest></Body></Envelope>`,
	} {
		if !checkWriteScan(t, []byte(env)) {
			t.Errorf("%s: declined %q", name, env)
		}
	}
}

// TestScanWriteRequestDeclines: each of these is a write encoding/xml
// decodes differently from the scanner's reading, or one the scanner has
// no business judging; all must reach soap.Unmarshal untouched and decode
// there as they did before the scanner existed.
func TestScanWriteRequestDeclines(t *testing.T) {
	submit := string(canonicalWrite(t, writeShapes()["bench submit"]))
	sub := func(old, new string) string {
		t.Helper()
		if !strings.Contains(submit, old) {
			t.Fatalf("canonical envelope has no %q", old)
		}
		return strings.Replace(submit, old, new, 1)
	}
	cases := map[string]string{
		"whitespace inside a tag":  sub(`<RegistryObject kind`, `<RegistryObject  kind`),
		"space before the end":     sub(`versionName="1.1">`, `versionName="1.1" >`),
		"newline between attrs":    sub(`" lid=`, "\"\nlid="),
		"single quotes":            sub(`kind="Service"`, `kind='Service'`),
		"namespace prefix":         strings.NewReplacer("<RegistryObject ", "<r:RegistryObject xmlns:r=\"urn:r\" ", "</RegistryObject>", "</r:RegistryObject>").Replace(submit),
		"prefixed attribute":       sub(`kind="Service"`, `x:kind="Service"`),
		"xmlns attribute":          sub(`<RegistryObject kind`, `<RegistryObject xmlns="urn:x" kind`),
		"comment":                  sub(`<Name>`, `<!-- n --><Name>`),
		"comment in text":          sub(`<Name>new-000001`, `<Name>new-<!-- n -->000001`),
		"CDATA":                    sub(`<Name>new-000001`, `<Name><![CDATA[new-000001]]>`),
		"other reference":          sub(`<Name>new-000001`, `<Name>&#x41;new-000001`),
		"decimal reference":        sub(`<Name>new-000001`, `<Name>&#65;new-000001`),
		"apos entity":              sub(`<Name>new-000001`, `<Name>&apos;new-000001`),
		"lower-case hex reference": sub(`<Name>new-000001`, `<Name>&#xa;new-000001`),
		"bare ampersand":           sub(`<Name>new-000001`, `<Name>a & b`),
		"duplicate attribute":      sub(`status="Submitted"`, `status="Submitted" status="Approved"`),
		"duplicate binding attr":   sub(`accessURI="http://10.0.0.1`, `accessURI="x" accessURI="http://10.0.0.1`),
		"unknown attribute":        sub(`status="Submitted"`, `status="Submitted" color="red"`),
		"raw carriage return":      sub(`<Name>new-000001`, "<Name>new-\r000001"),
		"raw tab":                  sub(`<Name>new-000001`, "<Name>new-\t000001"),
		"raw newline in attr":      sub(`status="Submitted"`, "status=\"Sub\nmitted\""),
		"raw greater-than":         sub(`<Name>new-000001`, `<Name>a>b`),
		"raw quote":                sub(`<Name>new-000001`, `<Name>"q"`),
		"nul":                      sub(`<Name>new-000001`, "<Name>a\x00b"),
		"invalid utf-8":            sub(`<Name>new-000001`, "<Name>a\xffb"),
		"U+FFFE":                   sub(`<Name>new-000001`, "<Name>a\uFFFEb"),
		"Slot child":               sub(`<ServiceBinding `, `<Slot name="s"><Value>v</Value></Slot><ServiceBinding `),
		"PostalAddress child":      sub(`<ServiceBinding `, `<PostalAddress city="SD"></PostalAddress><ServiceBinding `),
		"QueryExpression child":    sub(`</RegistryObject>`, `<QueryExpression>q</QueryExpression></RegistryObject>`),
		"child inside binding":     sub(`></ServiceBinding>`, `><Slot name="s"></Slot></ServiceBinding>`),
		"description before name":  strings.Replace(sub(`<Name>new-000001</Name>`, ``), `</Description>`, `</Description><Name>new-000001</Name>`, 1),
		"second name":              sub(`</Name>`, `</Name><Name>again</Name>`),
		"element in text":          sub(`<Name>new-000001`, `<Name><b>new</b>-000001`),
		"text between elements":    sub(`<ServiceBinding `, `text<ServiceBinding `),
		"second list":              sub(`</RegistryObjectList>`, `</RegistryObjectList><RegistryObjectList></RegistryObjectList>`),
		"second request":           sub(`</RegistryRequest>`, `<SubmitObjectsRequest></SubmitObjectsRequest></RegistryRequest>`),
		"unknown request attr":     sub(`session="4f9c0d1e2b3a"`, `session="4f9c0d1e2b3a" mode="x"`),
		"duplicate session":        sub(`session="4f9c0d1e2b3a"`, `session="a" session="b"`),
		"approve request":          strings.NewReplacer("SubmitObjectsRequest", "ApproveObjectsRequest").Replace(submit),
		"header element":           sub("<Body>", "<Header></Header><Body>"),
		"byte order mark":          "\uFEFF" + submit,
		"trailing bytes":           submit + "x",
		"second envelope":          submit + submit,
		"unterminated text":        submit[:strings.Index(submit, "new-000001")+3],
	}
	for name, env := range cases {
		if checkWriteScan(t, []byte(env)) {
			t.Errorf("%s: accepted %q", name, env)
		}
		// Declined, it decodes as it did before: scanRegistryRequest takes
		// no write the scanner declines, so the handler sees soap.Unmarshal's.
		var via soapRequest
		if scanRegistryRequest([]byte(env), &via) {
			t.Errorf("%s: the decode hook took %q", name, env)
		}
	}
	for i := 0; i < len(submit); i++ {
		if checkWriteScan(t, []byte(submit[:i])) {
			t.Errorf("accepted the envelope cut at byte %d: %q", i, submit[:i])
		}
	}
}

// FuzzScanWriteRequest: whenever the scanner accepts an envelope,
// soap.Unmarshal accepts it too and decodes the same request.
func FuzzScanWriteRequest(f *testing.F) {
	for _, req := range writeShapes() {
		f.Add(canonicalWrite(f, req))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkWriteScan(t, raw)
	})
}

// TestFollowerRedirectsScannedWrite: a write the scanner decodes reaches
// the handler as a write, so a follower still answers it 307.
func TestFollowerRedirectsScannedWrite(t *testing.T) {
	reg, err := New(Config{Clock: simclock.NewManual(t0), ReplFollowURL: "http://leader.invalid:8080"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bench submit", "bench update"} {
		env := canonicalWrite(t, writeShapes()[name])
		var req soapRequest
		if !scanRegistryRequest(env, &req) {
			t.Fatalf("%s: not scanned", name)
		}
		w := httptest.NewRecorder()
		reg.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/soap/registry", bytes.NewReader(env)))
		if w.Code != http.StatusTemporaryRedirect || w.Header().Get("Location") != "http://leader.invalid:8080/soap/registry" {
			t.Fatalf("%s on a follower: %d Location %q, want 307 to the leader", name, w.Code, w.Header().Get("Location"))
		}
	}
}

// checkAck requires the writer's bytes to be soap.Marshal's.
func checkAck(t testing.TB, status string, ids []string) {
	t.Helper()
	want, err := soap.Marshal(&RegistryResponse{Status: status, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	got := appendRegistryResponse(prefix, status, ids)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("writer overwrote what was in the buffer: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("ack of %q %q differs:\nwriter  %q\nmarshal %q", status, ids, got, want)
	}
}

func TestAppendRegistryResponse(t *testing.T) {
	for _, c := range []struct {
		status string
		ids    []string
	}{
		{"Success", nil},
		{"Success", []string{}},
		{"Success", []string{""}},
		{"Success", []string{"urn:uuid:3f1c2d4e-5a6b-4c7d-8e9f-0a1b2c3d4e5f"}},
		{"Success", []string{"a", "", "b"}},
		{"", []string{"x"}},
		{`Partial "<&>" 'ok'`, []string{`id&<>"'`, "tab\tline\ncr\r", "]]>"}},
		{"añadir 加法", []string{"nul\x00", "bad\xffbyte", "\uFFFE", "\uFFFD", "\U0001F9EE"}},
	} {
		checkAck(t, c.status, c.ids)
	}
	// The handler's ack is the writer's.
	resp, err := ack([]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := soap.Marshal(&RegistryResponse{Status: "Success", IDs: []string{"a", "b"}})
	if raw, ok := resp.(soap.Raw); !ok || !bytes.Equal(raw, want) {
		t.Fatalf("ack = %T %q, want soap.Raw %q", resp, resp, want)
	}
}

// FuzzAppendRegistryResponse: the writer's bytes are soap.Marshal's for
// any status and ids.
func FuzzAppendRegistryResponse(f *testing.F) {
	f.Add("Success", "urn:uuid:3f1c2d4e-5a6b-4c7d-8e9f-0a1b2c3d4e5f", "", uint8(2))
	f.Add("", "", "", uint8(0))
	f.Add(`"<&>'`, "\t\n\r", "\xff", uint8(4))
	f.Fuzz(func(t *testing.T, status, a, b string, n uint8) {
		var ids []string
		// nil, empty, then one to three of the strings.
		switch n % 5 {
		case 1:
			ids = []string{}
		case 2:
			ids = []string{a}
		case 3:
			ids = []string{a, b}
		case 4:
			ids = []string{b, a + b, a}
		}
		checkAck(t, status, ids)
	})
}

// BenchmarkSOAPWriteDecode prices the decode of the benchmark's submit:
// the hook, and soap.Unmarshal, which decodes every envelope it declines.
func BenchmarkSOAPWriteDecode(b *testing.B) {
	env := canonicalWrite(b, writeShapes()["bench submit"])
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req soapRequest
			if !scanRegistryRequest(env, &req) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req soapRequest
			if err := soap.Unmarshal(env, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
