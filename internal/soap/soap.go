// Package soap implements the lightweight SOAP 1.1-style XML envelope the
// registry and the NodeStatus service exchange over HTTP — the messaging
// layer of the Web Service stack (thesis Fig. 1.1, §1.3.1.2): a request
// payload is wrapped in <Envelope><Body>, POSTed, and answered with either
// a response payload or a <Fault>.
//
// The envelope is intentionally a faithful subset: one body element, an
// optional fault, no attachments. It is enough to run every protocol in
// the reproduction (SubmitObjectsRequest, AdhocQueryRequest, NodeStatus
// invocations) over real net/http connections.
package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"
)

// NS is the SOAP 1.1 envelope namespace.
const NS = "http://schemas.xmlsoap.org/soap/envelope/"

// ContentType is the media type for SOAP 1.1 over HTTP.
const ContentType = "text/xml; charset=utf-8"

// Fault is a SOAP fault. It implements error so transport helpers can
// return it directly.
type Fault struct {
	XMLName xml.Name `xml:"Fault"`
	Code    string   `xml:"faultcode"`
	String  string   `xml:"faultstring"`
	Detail  string   `xml:"detail,omitempty"`
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// ClientFault builds a Client-code fault (the caller's request was bad).
func ClientFault(format string, args ...interface{}) *Fault {
	return &Fault{Code: "Client", String: fmt.Sprintf(format, args...)}
}

// ServerFault builds a Server-code fault (the service failed).
func ServerFault(format string, args ...interface{}) *Fault {
	return &Fault{Code: "Server", String: fmt.Sprintf(format, args...)}
}

// Redirect is returned by a handler whose operation must be performed by
// a different node — a replication follower refusing a write. The
// endpoint answers 307 Temporary Redirect with a Location header, plus
// the typed fault as the body for clients that do not follow redirects;
// Go's http.Client re-POSTs the identical envelope at Location
// automatically, so callers land on the right node transparently.
type Redirect struct {
	Location string
	Fault    *Fault
}

// Error implements error.
func (r *Redirect) Error() string { return r.Fault.Error() }

// envelope is the wire form.
type envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	XMLNS   string   `xml:"xmlns,attr,omitempty"`
	Body    body     `xml:"Body"`
}

type body struct {
	Inner []byte `xml:",innerxml"`
}

// Marshal wraps payload in a SOAP envelope. A *Fault payload becomes a
// fault body.
func Marshal(payload interface{}) ([]byte, error) {
	inner, err := xml.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("soap: marshal body: %w", err)
	}
	env := envelope{XMLNS: NS, Body: body{Inner: inner}}
	out, err := xml.MarshalIndent(&env, "", " ")
	if err != nil {
		return nil, fmt.Errorf("soap: marshal envelope: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// Unmarshal extracts the envelope body into payload. If the body carries a
// fault, Unmarshal returns it as a *Fault error and leaves payload
// untouched.
//
// The envelope is tokenized in one pass. The first element of the Body is
// decoded straight into payload, or into a Fault when it is named Fault and
// has a faultcode, by a decoder that starts at that element, so names
// inside it resolve as if it were a document of its own. A Body with
// no element is an error unless payload is nil, and one with nothing but
// white space is always an error. When an envelope has more than one Body
// the last one counts, and payload starts over from its zero value for it.
// Bytes after the Envelope are not read.
func Unmarshal(data []byte, payload interface{}) error {
	u := unmarshaler{data: data, payload: payload, result: errEmptyBody}
	if err := u.envelope(); err != nil {
		return fmt.Errorf("soap: bad envelope: %w", err)
	}
	return u.result
}

var errEmptyBody = errors.New("soap: empty body")

// unmarshaler is one Unmarshal. Outside the body's first element, data is
// read as raw tokens and the open elements are matched on u.stack, because
// after each first element the decoder is replaced by one that starts
// where the element ends, and that decoder has seen none of them open.
type unmarshaler struct {
	data    []byte
	payload interface{}
	touched bool  // payload has been decoded into
	result  error // the outcome of the last Body

	d     *xml.Decoder // reads data[base:]
	base  int64
	stack []xml.Name
}

// envelope reads data through the Envelope's end tag. The error it returns
// makes the envelope bad; what the body holds goes to u.result.
func (u *unmarshaler) envelope() error {
	u.seek(0)
	for {
		tok, err := u.next()
		if err != nil {
			return err
		}
		if t, ok := tok.(xml.StartElement); ok {
			if t.Name.Local != "Envelope" {
				return xml.UnmarshalError("expected element type <Envelope> but have <" + t.Name.Local + ">")
			}
			break
		}
	}
	for len(u.stack) > 0 {
		tok, err := u.next()
		if err != nil {
			return err
		}
		if t, ok := tok.(xml.StartElement); ok && len(u.stack) == 2 && t.Name.Local == "Body" {
			if err := u.body(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (u *unmarshaler) seek(at int64) {
	u.d, u.base = xml.NewDecoder(bytes.NewReader(u.data[at:])), at
}

func (u *unmarshaler) offset() int64 { return u.base + u.d.InputOffset() }

// next returns the next raw token, holding end tags to the start tags they
// close as encoding/xml's Token does.
func (u *unmarshaler) next() (xml.Token, error) {
	tok, err := u.d.RawToken()
	if err == io.EOF && len(u.stack) > 0 {
		return nil, u.syntaxError("unexpected EOF")
	}
	if err != nil {
		return nil, err
	}
	switch t := tok.(type) {
	case xml.StartElement:
		u.stack = append(u.stack, t.Name)
	case xml.EndElement:
		if len(u.stack) == 0 {
			return nil, u.syntaxError("unexpected end element </" + t.Name.Local + ">")
		}
		open := u.stack[len(u.stack)-1]
		if open != t.Name {
			return nil, u.syntaxError("element <" + open.Local + "> closed by </" + t.Name.Local + ">")
		}
		u.stack = u.stack[:len(u.stack)-1]
	}
	return tok, nil
}

// syntaxError is the error encoding/xml's Token reports for msg.
func (u *unmarshaler) syntaxError(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + bytes.Count(u.data[:u.offset()], []byte("\n"))}
}

// body reads a Body, its start tag already read, up to its first element,
// which it decodes, or through its end tag when it has none.
func (u *unmarshaler) body() error {
	if v := reflect.ValueOf(u.payload); u.touched && v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	u.touched = false
	inner := u.offset()
	for {
		at := u.offset()
		tok, err := u.next()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.EndElement:
			switch {
			case len(bytes.TrimSpace(u.data[inner:at])) == 0:
				u.result = errEmptyBody
			case u.payload == nil:
				u.result = nil
			default:
				u.result = fmt.Errorf("soap: decode body: %w", io.EOF)
			}
			return nil
		case xml.StartElement:
			u.stack = u.stack[:len(u.stack)-1] // decodeAt reads it again
			end, err := u.first(t.Name.Local, at)
			if err != nil {
				return err
			}
			u.seek(end)
			return nil
		}
	}
}

// first decodes the element that starts at byte at and returns where it
// ends.
func (u *unmarshaler) first(name string, at int64) (end int64, err error) {
	u.result = nil
	if name == "Fault" {
		// A Fault's fields are strings, so any error is the envelope's.
		var f Fault
		if end, err = u.decodeAt(at, &f); err != nil {
			return 0, err
		}
		if f.Code != "" {
			u.result = &f
		} else if u.payload != nil {
			// Without a code the element is the payload's.
			u.touched = true
			if _, err := u.decodeAt(at, u.payload); err != nil {
				u.result = fmt.Errorf("soap: decode body: %w", err)
			}
		}
		return end, nil
	}
	if u.payload == nil {
		return u.decodeAt(at, nil)
	}
	u.touched = true
	if end, err = u.decodeAt(at, u.payload); err == nil {
		return end, nil
	}
	var syntax *xml.SyntaxError
	if errors.As(err, &syntax) {
		return 0, err
	}
	u.result = fmt.Errorf("soap: decode body: %w", err)
	// Find the element's end: the decoder stopped inside it.
	return u.decodeAt(at, nil)
}

// decodeAt decodes the element at byte at into v, or only reads it when v
// is nil, and returns where it ends.
func (u *unmarshaler) decodeAt(at int64, v interface{}) (end int64, err error) {
	d := xml.NewDecoder(bytes.NewReader(u.data[at:]))
	if v != nil {
		err = d.Decode(v)
	} else {
		if _, err = d.Token(); err == nil {
			err = d.Skip()
		}
	}
	return at + d.InputOffset(), err
}

// Post sends req to url as a SOAP request and decodes the reply into resp
// (which may be nil to ignore the body). Faults come back as *Fault errors.
//
//repolint:ctxprop-allow context-free compatibility wrapper for callers without a request context
func Post(client *http.Client, url string, req, resp interface{}) error {
	return PostContext(context.Background(), client, url, req, resp)
}

// DefaultTimeout bounds a Post or PostContext made with a nil client.
const DefaultTimeout = 30 * time.Second

var defaultClient = &http.Client{Timeout: DefaultTimeout}

// PostContext is Post with a caller-supplied context so an in-flight
// invocation can be cancelled (the collector's per-invocation deadline
// tears the socket down through here). A nil client means one bounded by
// DefaultTimeout.
func PostContext(ctx context.Context, client *http.Client, url string, req, resp interface{}) error {
	if client == nil {
		client = defaultClient
	}
	data, err := Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("soap: build request for %s: %w", url, err)
	}
	httpReq.Header.Set("Content-Type", ContentType)
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return fmt.Errorf("soap: post %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("soap: read response: %w", err)
	}
	if err := Unmarshal(raw, resp); err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("soap: http status %d from %s", httpResp.StatusCode, url)
	}
	return nil
}

// Raw is a pre-marshalled SOAP envelope. A handler that returns Raw from
// Endpoint/EndpointCtx skips the Marshal step entirely — the bytes are
// written as-is under the SOAP content type. The registry's response
// cache uses this to serve preserialized GetBindings envelopes.
type Raw []byte

// Endpoint adapts a typed handler to http.Handler. The handler receives
// the decoded request and returns a response payload or an error; errors
// that are not already *Fault become Server faults. Req must be a struct
// type decodable from the request body. Handlers that need the request's
// context (deadline, cancellation, trace) use EndpointCtx instead.
func Endpoint[Req any](handle func(*Req) (interface{}, error)) http.Handler {
	return EndpointCtx(func(_ context.Context, req *Req) (interface{}, error) {
		return handle(req)
	}, nil)
}

// MaxBodyBytes caps every request body an endpoint reads, whatever stands
// in front of it: a read past it fails the request with a Client fault
// instead of holding the connection and memory for a giant envelope.
const MaxBodyBytes = 8 << 20

// requestBuffer is the pooled scratch one request body is read into. The
// bytes live only until the request is decoded: Unmarshal copies every
// string and innerxml slice it hands out, and a scan hook must do the same.
type requestBuffer struct {
	bytes.Buffer
}

var requestBuffers = sync.Pool{New: func() interface{} { return new(requestBuffer) }}

// maxPooledRequest keeps one large publish from pinning its buffer in the
// pool forever.
const maxPooledRequest = 1 << 20

// readRequest reads body into a pooled buffer the caller releases once the
// bytes are decoded.
func readRequest(body io.Reader) (*requestBuffer, error) {
	buf := requestBuffers.Get().(*requestBuffer)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		buf.release()
		return nil, err
	}
	return buf, nil
}

func (b *requestBuffer) release() {
	if b.Cap() <= maxPooledRequest {
		requestBuffers.Put(b)
	}
}

// contentTypeHeader is assigned by key into the response header map,
// which unlike Header().Set allocates nothing.
var contentTypeHeader = []string{ContentType}

// EndpointCtx is Endpoint for context-aware handlers: the handler receives
// the HTTP request's context, so per-request deadlines, client
// disconnects, and trace values propagate into the SOAP dispatch.
//
// scan, when not nil, is offered the raw request bytes before Unmarshal:
// it either fills req and reports true, or reports false having left req
// untouched, and the envelope is then decoded by Unmarshal as if the hook
// did not exist. It is how an endpoint recognises its one hot message
// without the cost of encoding/xml; the bytes it is shown are reused once
// it returns, so whatever it keeps it must copy.
func EndpointCtx[Req any](handle func(context.Context, *Req) (interface{}, error), scan func(raw []byte, req *Req) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeFault(w, http.StatusMethodNotAllowed, ClientFault("method %s not allowed", r.Method))
			return
		}
		raw, err := readRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			writeFault(w, http.StatusBadRequest, ClientFault("read request: %v", err))
			return
		}
		var req Req
		if scan == nil || !scan(raw.Bytes(), &req) {
			err = Unmarshal(raw.Bytes(), &req)
		}
		raw.release()
		if err != nil {
			writeFault(w, http.StatusBadRequest, ClientFault("decode request: %v", err))
			return
		}
		resp, err := handle(r.Context(), &req)
		if err != nil {
			var rd *Redirect
			if errors.As(err, &rd) {
				w.Header().Set("Location", rd.Location)
				writeFault(w, http.StatusTemporaryRedirect, rd.Fault)
				return
			}
			f, ok := err.(*Fault)
			if !ok {
				f = ServerFault("%v", err)
			}
			status := http.StatusInternalServerError
			if f.Code == "Client" {
				status = http.StatusBadRequest
			}
			writeFault(w, status, f)
			return
		}
		data, ok := resp.(Raw)
		if !ok {
			if data, err = Marshal(resp); err != nil {
				writeFault(w, http.StatusInternalServerError, ServerFault("encode response: %v", err))
				return
			}
		}
		w.Header()["Content-Type"] = contentTypeHeader
		w.Write(data)
	})
}

func writeFault(w http.ResponseWriter, status int, f *Fault) {
	data, err := Marshal(f)
	if err != nil {
		http.Error(w, f.String, status)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	w.Write(data)
}
