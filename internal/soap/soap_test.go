package soap

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
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

// FuzzSOAPUnmarshal: on any input Unmarshal neither panics nor fills the
// payload of a body it reports as a fault, and the envelope of any fault
// with a code comes back as that *Fault.
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
