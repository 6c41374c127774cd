package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

type ping struct {
	XMLName struct{} `xml:"Ping"`
	Msg     string   `xml:"msg"`
	N       int      `xml:"n"`
}

type pong struct {
	XMLName struct{} `xml:"Pong"`
	Msg     string   `xml:"msg"`
	N       int      `xml:"n"`
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	data, err := Marshal(&ping{Msg: "hello <world> & co", N: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "Envelope") || !strings.Contains(s, "Body") || !strings.Contains(s, "Ping") {
		t.Fatalf("envelope missing parts:\n%s", s)
	}
	var got ping
	if err := Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Msg != "hello <world> & co" || got.N != 42 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestUnmarshalFault(t *testing.T) {
	data, err := Marshal(ServerFault("boom %d", 7))
	if err != nil {
		t.Fatal(err)
	}
	var got ping
	err = Unmarshal(data, &got)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.Code != "Server" || f.String != "boom 7" {
		t.Fatalf("fault = %+v", f)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if err := Unmarshal([]byte("not xml"), &ping{}); err == nil {
		t.Fatal("garbage accepted")
	}
	empty := `<Envelope xmlns="` + NS + `"><Body></Body></Envelope>`
	if err := Unmarshal([]byte(empty), &ping{}); err == nil {
		t.Fatal("empty body accepted")
	}
}

func TestUnmarshalNilPayloadSkipsDecode(t *testing.T) {
	data, _ := Marshal(&ping{Msg: "x"})
	if err := Unmarshal(data, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointAndPost(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(req *ping) (interface{}, error) {
		if req.Msg == "fail" {
			return nil, ClientFault("bad message")
		}
		if req.Msg == "crash" {
			return nil, errors.New("internal explosion")
		}
		return &pong{Msg: strings.ToUpper(req.Msg), N: req.N + 1}, nil
	}))
	defer srv.Close()

	var resp pong
	if err := Post(srv.Client(), srv.URL, &ping{Msg: "hi", N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "HI" || resp.N != 2 {
		t.Fatalf("resp = %+v", resp)
	}

	// Client fault surfaces with code Client.
	err := Post(srv.Client(), srv.URL, &ping{Msg: "fail"}, &resp)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "Client" {
		t.Fatalf("want client fault, got %v", err)
	}

	// Generic errors become Server faults.
	err = Post(srv.Client(), srv.URL, &ping{Msg: "crash"}, &resp)
	if !errors.As(err, &f) || f.Code != "Server" || !strings.Contains(f.String, "explosion") {
		t.Fatalf("want server fault, got %v", err)
	}
}

func TestEndpointRejectsGet(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(req *ping) (interface{}, error) { return &pong{}, nil }))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestEndpointRejectsGarbageBody(t *testing.T) {
	srv := httptest.NewServer(Endpoint(func(req *ping) (interface{}, error) { return &pong{}, nil }))
	defer srv.Close()
	resp, err := http.Post(srv.URL, ContentType, strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPostConnectionError(t *testing.T) {
	err := Post(nil, "http://127.0.0.1:1/nothing", &ping{}, nil)
	if err == nil {
		t.Fatal("dead endpoint succeeded")
	}
}

func TestFaultBodyWithPayloadNamedFault(t *testing.T) {
	// A legitimate payload whose content merely mentions "Fault" must not
	// be mistaken for a fault (the sniff checks decode success and code).
	data, err := Marshal(&ping{Msg: "Fault tolerance"})
	if err != nil {
		t.Fatal(err)
	}
	var got ping
	if err := Unmarshal(data, &got); err != nil {
		t.Fatalf("payload mentioning Fault rejected: %v", err)
	}
	if got.Msg != "Fault tolerance" {
		t.Fatalf("got %+v", got)
	}
}

// TestEndpointScanHook: the hook is offered the raw bytes first; when it
// declines, the request is decoded by Unmarshal as if there were no hook.
func TestEndpointScanHook(t *testing.T) {
	var offered, decoded int
	srv := httptest.NewServer(EndpointCtx(func(_ context.Context, req *ping) (interface{}, error) {
		return &pong{Msg: req.Msg, N: req.N}, nil
	}, func(raw []byte, req *ping) bool {
		offered++
		if !bytes.Contains(raw, []byte("<msg>hot</msg>")) {
			return false
		}
		decoded++
		req.Msg, req.N = "scanned", -1
		return true
	}))
	defer srv.Close()

	var resp pong
	if err := Post(srv.Client(), srv.URL, &ping{Msg: "hot", N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "scanned" || resp.N != -1 {
		t.Fatalf("accepted request reached the handler as %+v, want the hook's decode", resp)
	}
	if err := Post(srv.Client(), srv.URL, &ping{Msg: "cold", N: 2}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "cold" || resp.N != 2 {
		t.Fatalf("declined request reached the handler as %+v, want Unmarshal's decode", resp)
	}
	httpResp, err := http.Post(srv.URL, ContentType, strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("declined garbage: status %d, want 400 from Unmarshal", httpResp.StatusCode)
	}
	if offered != 3 || decoded != 1 {
		t.Fatalf("hook offered %d requests and decoded %d, want 3 and 1", offered, decoded)
	}
}

type blob struct {
	XMLName struct{} `xml:"Blob"`
	Attr    string   `xml:"attr,attr"`
	Text    string   `xml:"Text"`
	Inner   []byte   `xml:",innerxml"`
}

// TestDecodedRequestDoesNotAliasPooledBuffer: request bodies are read into
// a buffer the next request reuses, so nothing Unmarshal hands the handler
// — strings or innerxml bytes — may point into it.
func TestDecodedRequestDoesNotAliasPooledBuffer(t *testing.T) {
	var kept []*blob
	srv := httptest.NewServer(Endpoint(func(req *blob) (interface{}, error) {
		kept = append(kept, req)
		return &pong{}, nil
	}))
	defer srv.Close()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		fill := strings.Repeat(string(rune('a'+i)), 200)
		env := `<Envelope xmlns="` + NS + `"><Body><Blob attr="` + fill + `"><Text>` + fill + `</Text></Blob></Body></Envelope>`
		resp, err := http.Post(srv.URL, ContentType, strings.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if len(kept) != rounds {
		t.Fatalf("handler saw %d requests, want %d", len(kept), rounds)
	}
	for i, req := range kept {
		fill := strings.Repeat(string(rune('a'+i)), 200)
		if req.Attr != fill || req.Text != fill || string(req.Inner) != "<Text>"+fill+"</Text>" {
			t.Fatalf("request %d changed after later requests reused its buffer: %+v", i, req)
		}
	}
}

// TestUnmarshalFaultPastTheSniff: a fault is told by its element's name,
// wherever it starts. The two-pass decode looked for "Fault" in the body's
// first 64 bytes only, so a comment in front hid the fault and it came back
// as a decode error.
func TestUnmarshalFaultPastTheSniff(t *testing.T) {
	data := []byte(`<Envelope xmlns="` + NS + `"><Body><!-- ` + strings.Repeat("padding ", 10) +
		`--><Fault><faultcode>Server</faultcode><faultstring>boom</faultstring></Fault></Body></Envelope>`)
	var got ping
	var f *Fault
	if err := Unmarshal(data, &got); !errors.As(err, &f) || f.Code != "Server" || f.String != "boom" {
		t.Fatalf("Unmarshal = %v, want the Server fault", err)
	}
	if err := unmarshalTwoPass(data, &got); errors.As(err, &f) {
		t.Fatalf("the reference found the fault too (%v): the case no longer shows the difference", err)
	}
}

// TestUnmarshalAgreesWithTwoPass pins the reference's answers on the
// envelopes where one pass has to work at it: several bodies, a fault
// without a code, a body with no element, a payload that fails to decode,
// and namespaces declared on the Envelope and Body.
func TestUnmarshalAgreesWithTwoPass(t *testing.T) {
	for name, env := range agreementCases {
		t.Run(name, func(t *testing.T) {
			checkAgreement[ping](t, []byte(env))
			checkAgreement[loose](t, []byte(env))
			checkNilPayload(t, []byte(env))
		})
	}
}

var agreementCases = map[string]string{
	"payload":               `<Envelope xmlns="` + NS + `"><Body><Ping><msg>x</msg><n>1</n></Ping></Body></Envelope>`,
	"two bodies":            `<Envelope><Body><Ping><msg>a</msg></Ping></Body><Body><Ping><n>2</n></Ping></Body></Envelope>`,
	"fault then payload":    `<Envelope><Body><Fault><faultcode>C</faultcode></Fault></Body><Body><Ping><msg>b</msg></Ping></Body></Envelope>`,
	"payload then fault":    `<Envelope><Body><Ping><msg>b</msg></Ping></Body><Body><Fault><faultcode>C</faultcode></Fault></Body></Envelope>`,
	"bad number then good":  `<Envelope><Body><Ping><n>x</n><msg>a</msg></Ping></Body><Body><Ping><n>3</n></Ping></Body></Envelope>`,
	"good then bad number":  `<Envelope><Body><Ping><n>3</n></Ping></Body><Body><Ping><n>x</n></Ping></Body></Envelope>`,
	"fault without code":    `<Envelope><Body><Fault><faultstring>s</faultstring><msg>m</msg></Fault></Body></Envelope>`,
	"empty fault":           `<Envelope><Body><Fault/></Body></Envelope>`,
	"comment only":          `<Envelope><Body><!-- Fault --></Body></Envelope>`,
	"text only":             `<Envelope><Body>text</Body></Envelope>`,
	"reference only":        `<Envelope><Body>&#32;</Body></Envelope>`,
	"unicode space only":    "<Envelope><Body>\u00a0</Body></Envelope>",
	"self-closing body":     `<Envelope><Body/></Envelope>`,
	"no body":               `<Envelope><Header/></Envelope>`,
	"other root":            `<Ping><msg>x</msg></Ping>`,
	"trailing garbage":      `<Envelope><Body><Ping/></Body></Envelope><<<`,
	"error after body":      `<Envelope><Body><Ping/></Body><Header></Head></Envelope>`,
	"error in later body":   `<Envelope><Body><Ping/></Body><Body><Ping></Pong></Body></Envelope>`,
	"unclosed":              `<Envelope><Body><Ping>`,
	"second element":        `<Envelope><Body><Ping><msg>a</msg></Ping><Ping><msg>b</msg></Ping></Body></Envelope>`,
	"prefixed envelope":     `<s:Envelope xmlns:s="` + NS + `"><s:Body><s:Fault><faultcode>s:Server</faultcode></s:Fault></s:Body></s:Envelope>`,
	"default ns in scope":   `<Envelope xmlns="urn:env"><Body xmlns:p="urn:p"><Ping p:a="1" b="2"><p:msg>x</p:msg><n>4</n></Ping></Body></Envelope>`,
	"own ns declarations":   `<Envelope xmlns="urn:env"><Body><Ping xmlns="urn:ping" xmlns:q="urn:q"><q:msg q:a="x">y</q:msg></Ping></Body></Envelope>`,
	"fault in default ns":   `<Envelope xmlns="` + NS + `"><Body><Fault><faultcode>Server</faultcode></Fault></Body></Envelope>`,
	"body in other element": `<Envelope><Header><Body><Ping/></Body></Header></Envelope>`,
}

// loose decodes any body element: it has no XMLName to mismatch, and it
// keeps the namespaces of names and attributes, so the namespace scope the
// body's content is decoded in shows in the value.
type loose struct {
	XMLName xml.Name
	Attrs   []xml.Attr   `xml:",any,attr"`
	N       int          `xml:"n"`
	Any     []looseChild `xml:",any"`
}

type looseChild struct {
	XMLName xml.Name
	Attrs   []xml.Attr `xml:",any,attr"`
	Text    string     `xml:",chardata"`
}

// checkAgreement decodes data into a fresh T with Unmarshal and with the
// two-pass reference and requires the same error or none, the same
// *Fault-ness, and the same fault or value. The one difference allowed is
// the fixed one: a fault the reference's 64-byte sniff did not see.
func checkAgreement[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	err := Unmarshal(data, &got)
	refErr := unmarshalTwoPass(data, &want)
	if fixedCase(data, err, refErr) {
		return
	}
	compareOutcomes(t, data, err, refErr)
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q decodes as\n%+v\nwant the reference's\n%+v", data, got, want)
	}
}

// checkNilPayload holds a decode with no payload to the reference.
func checkNilPayload(t *testing.T, data []byte) {
	t.Helper()
	err := Unmarshal(data, nil)
	refErr := unmarshalTwoPass(data, nil)
	if !fixedCase(data, err, refErr) {
		compareOutcomes(t, data, err, refErr)
	}
}

func fixedCase(data []byte, err, refErr error) bool {
	var f, refF *Fault
	if !errors.As(err, &f) || errors.As(refErr, &refF) {
		return false
	}
	inner, ok := referenceBody(data)
	return ok && !faultSniff(inner)
}

func compareOutcomes(t *testing.T, data []byte, err, refErr error) {
	t.Helper()
	var f, refF *Fault
	isFault, refIsFault := errors.As(err, &f), errors.As(refErr, &refF)
	if (err == nil) != (refErr == nil) || isFault != refIsFault {
		t.Fatalf("%q: Unmarshal says %v, the reference %v", data, err, refErr)
	}
	if isFault && !reflect.DeepEqual(f, refF) {
		t.Fatalf("%q: fault %+v, the reference's %+v", data, f, refF)
	}
}

// FuzzSOAPUnmarshal: on any input Unmarshal neither panics nor fills the
// payload of a body it reports as a fault, it agrees with the two-pass
// reference (checkAgreement), and the envelope of any fault with a code
// comes back as that *Fault.
func FuzzSOAPUnmarshal(f *testing.F) {
	for _, payload := range []interface{}{
		&ping{Msg: "hello <world> & co", N: 42},
		&ping{Msg: "Fault tolerance"},
		ServerFault("boom %d", 7),
		&Fault{Code: "Client", String: "bad", Detail: "<detail/>"},
	} {
		env, err := Marshal(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env, "Server", "boom")
	}
	for _, env := range agreementCases {
		f.Add([]byte(env), "", "")
	}
	f.Fuzz(func(t *testing.T, data []byte, code, str string) {
		var got ping
		var fault *Fault
		if err := Unmarshal(data, &got); errors.As(err, &fault) {
			if fault.Code == "" {
				t.Fatalf("fault without a code from %q", data)
			}
			if got != (ping{}) {
				t.Fatalf("fault body %q also filled the payload: %+v", data, got)
			}
		}
		checkAgreement[ping](t, data)
		checkAgreement[loose](t, data)
		checkNilPayload(t, data)
		if code == "" {
			return
		}
		env, err := Marshal(&Fault{Code: code, String: str})
		if err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(env, &got); !errors.As(err, &fault) {
			t.Fatalf("fault %q/%q came back as %v", code, str, err)
		}
	})
}
