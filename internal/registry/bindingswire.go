// bindingswire.go is the hand-written wire code of /soap/registry's hot
// exchanges. For discovery, GetBindingsRequest → GetBindingsResponse: a
// recogniser for the request envelope exactly as soap.Marshal emits it,
// and append-style writers for the response in both encodings, byte for
// byte what soap.Marshal and writeJSON's encoder would produce. For
// publishing, SubmitObjectsRequest and UpdateObjectsRequest →
// RegistryResponse: a recogniser for the canonical request whose objects
// carry no slots, addresses or query text, and an append-style writer of
// the acknowledgement. encoding/xml
// and encoding/json stay the codecs of every other protocol element, the
// decoder of every envelope the recognisers decline, and the references
// all of them are fuzzed against.
package registry

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/soap"
)

// The canonical request envelope, cut at the points where XML whitespace
// may stand between two elements.
var (
	reqDecl = []byte(`<?xml version="1.0" encoding="UTF-8"?>`)
	reqOpen = [...][]byte{
		[]byte(`<Envelope xmlns="` + soap.NS + `">`),
		[]byte(`<Body>`),
		[]byte(`<RegistryRequest>`),
	}
	reqGet       = []byte(`<GetBindingsRequest `)
	reqAttrName  = []byte(`serviceName="`)
	reqAttrID    = []byte(`serviceId="`)
	reqEndTag    = []byte(`></GetBindingsRequest>`)
	reqSelfClose = []byte(`/>`)
	reqClose     = [...][]byte{
		[]byte(`</RegistryRequest>`),
		[]byte(`</Body>`),
		[]byte(`</Envelope>`),
	}
)

// scanGetBindings recognises the canonical GetBindingsRequest envelope —
//
//	<?xml version="1.0" encoding="UTF-8"?>
//	<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">
//	 <Body><RegistryRequest><GetBindingsRequest serviceName="…"></GetBindingsRequest></RegistryRequest></Body>
//	</Envelope>
//
// with serviceId in place of serviceName, "/>" in place of the empty
// element's end tag, and any run of XML whitespace (or none) between two
// elements and after the last — and returns its one attribute: value
// aliases raw. Everything else is declined, to be decoded by
// soap.Unmarshal: whitespace inside a tag, a second attribute, single
// quotes, a namespace prefix, a comment, any other protocol element, and
// any value encoding/xml would have to unescape, normalise or reject (an
// empty one, '&', '<', a control byte, invalid UTF-8, U+FFFE, U+FFFF). What
// is accepted is therefore decoded exactly as encoding/xml decodes it.
func scanGetBindings(raw []byte) (byID bool, value []byte, ok bool) {
	p, ok := openRequest(raw)
	if !ok {
		return false, nil, false
	}
	if p, ok = nextElement(p, reqGet); !ok {
		return false, nil, false
	}
	switch {
	case bytes.HasPrefix(p, reqAttrName):
		p = p[len(reqAttrName):]
	case bytes.HasPrefix(p, reqAttrID):
		byID, p = true, p[len(reqAttrID):]
	default:
		return false, nil, false
	}
	n := plainAttrValue(p)
	if n <= 0 {
		return false, nil, false
	}
	value, p = p[:n], p[n+1:]
	switch {
	case bytes.HasPrefix(p, reqEndTag):
		p = p[len(reqEndTag):]
	case bytes.HasPrefix(p, reqSelfClose):
		p = p[len(reqSelfClose):]
	default:
		return false, nil, false
	}
	if !closeRequest(p) {
		return false, nil, false
	}
	return byID, value, true
}

// openRequest requires the canonical envelope up to and including
// <RegistryRequest>, and returns what follows it.
func openRequest(raw []byte) ([]byte, bool) {
	if !bytes.HasPrefix(raw, reqDecl) {
		return nil, false
	}
	p := raw[len(reqDecl):]
	var ok bool
	for i := range reqOpen {
		if p, ok = nextElement(p, reqOpen[i]); !ok {
			return nil, false
		}
	}
	return p, true
}

// closeRequest reports whether p is the canonical envelope's end, from
// </RegistryRequest> on, and nothing after it but XML whitespace.
func closeRequest(p []byte) bool {
	var ok bool
	for i := range reqClose {
		if p, ok = nextElement(p, reqClose[i]); !ok {
			return false
		}
	}
	return len(skipXMLSpace(p)) == 0
}

// nextElement skips XML whitespace and then requires tag.
func nextElement(p, tag []byte) ([]byte, bool) {
	p = skipXMLSpace(p)
	if !bytes.HasPrefix(p, tag) {
		return p, false
	}
	return p[len(tag):], true
}

func skipXMLSpace(p []byte) []byte {
	for len(p) > 0 && (p[0] == ' ' || p[0] == '\n' || p[0] == '\t' || p[0] == '\r') {
		p = p[1:]
	}
	return p
}

// plainAttrValue returns the length of the double-quoted attribute value p
// starts in the middle of, or -1 when the value is unterminated or holds
// anything encoding/xml would not copy through unchanged.
func plainAttrValue(p []byte) int {
	for i := 0; i < len(p); {
		c := p[i]
		switch {
		case c == '"':
			return i
		case c < 0x20 || c == '<' || c == '&':
			return -1
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(p[i:])
			if r == utf8.RuneError && size == 1 || r == 0xFFFE || r == 0xFFFF {
				return -1
			}
			i += size
		}
	}
	return -1
}

// scanRegistryRequest is /soap/registry's decode hook (soap.EndpointCtx):
// the canonical GetBindingsRequest, SubmitObjectsRequest and
// UpdateObjectsRequest envelopes become a soapRequest without
// encoding/xml, and every other envelope is left to soap.Unmarshal.
func scanRegistryRequest(raw []byte, req *soapRequest) bool {
	byID, value, ok := scanGetBindings(raw)
	if !ok {
		return scanWriteRequest(raw, req)
	}
	// raw is a pooled buffer: the key outlives it in the response cache.
	req.Bindings = &GetBindingsRequest{}
	if byID {
		req.Bindings.ServiceID = string(value)
	} else {
		req.Bindings.ServiceName = string(value)
	}
	return true
}

// The elements of a canonical write request, in the order they may occur.
var (
	reqSubmit         = []byte(`<SubmitObjectsRequest`)
	reqSubmitEnd      = []byte(`</SubmitObjectsRequest>`)
	reqUpdate         = []byte(`<UpdateObjectsRequest`)
	reqUpdateEnd      = []byte(`</UpdateObjectsRequest>`)
	reqList           = []byte(`<RegistryObjectList>`)
	reqListEnd        = []byte(`</RegistryObjectList>`)
	reqObject         = []byte(`<RegistryObject`)
	reqObjectEnd      = []byte(`</RegistryObject>`)
	reqName           = []byte(`<Name>`)
	reqNameEnd        = []byte(`</Name>`)
	reqDescription    = []byte(`<Description>`)
	reqDescriptionEnd = []byte(`</Description>`)
	reqBinding        = []byte(`<ServiceBinding`)
	reqBindingEnd     = []byte(`</ServiceBinding>`)
)

// scanWriteRequest recognises the canonical SubmitObjectsRequest and
// UpdateObjectsRequest envelopes (DESIGN.md gives the grammar): the
// request's session attribute; a RegistryObjectList of RegistryObjects
// with any of WireObject's attributes, each at most once, and Name,
// Description and ServiceBinding children in that order; a ServiceBinding
// with any of WireBinding's attributes and a Description; XML whitespace
// between two elements; and text in which the only references are the
// ones encoding/xml's marshaller writes. It fills req.Submit or req.Update
// and reports true, or leaves req untouched: whitespace inside a tag,
// single quotes, a namespace prefix, a comment, CDATA, any other
// reference, a duplicate or unknown attribute, a raw control character, a
// Slot, PostalAddress or any other child, and anything after the envelope
// are left to soap.Unmarshal. What is accepted is decoded exactly as
// encoding/xml decodes it, every string a copy.
func scanWriteRequest(raw []byte, req *soapRequest) bool {
	p, ok := openRequest(raw)
	if !ok {
		return false
	}
	p = skipXMLSpace(p)
	update := bytes.HasPrefix(p, reqUpdate)
	end := reqUpdateEnd
	switch {
	case update:
		p = p[len(reqUpdate):]
	case bytes.HasPrefix(p, reqSubmit):
		p, end = p[len(reqSubmit):], reqSubmitEnd
	default:
		return false
	}
	var session string
	p, empty, ok := scanAttrs(p, requestAttrs, []*string{&session})
	if !ok {
		return false
	}
	var objects []WireObject
	if !empty {
		if p, ok = nextElement(p, reqList); ok {
			for p = skipXMLSpace(p); bytes.HasPrefix(p, reqObject); p = skipXMLSpace(p) {
				var o WireObject
				if o, p, ok = scanObject(p[len(reqObject):]); !ok {
					return false
				}
				objects = append(objects, o)
			}
			if !bytes.HasPrefix(p, reqListEnd) {
				return false
			}
			p = p[len(reqListEnd):]
		}
		if p, ok = nextElement(p, end); !ok {
			return false
		}
	}
	if !closeRequest(p) {
		return false
	}
	if update {
		req.Update = &UpdateObjectsRequest{Session: session, Objects: objects}
	} else {
		req.Submit = &SubmitObjectsRequest{Session: session, Objects: objects}
	}
	return true
}

// scanObject reads a RegistryObject from just after its name.
func scanObject(p []byte) (o WireObject, rest []byte, ok bool) {
	p, empty, ok := scanAttrs(p, objectAttrs, []*string{
		&o.Kind, &o.ID, &o.LID, &o.Status, &o.Owner, &o.Home, &o.Version, &o.ParentID,
		&o.Alias, &o.FirstName, &o.MiddleName, &o.LastName, &o.AssociationType,
		&o.SourceID, &o.TargetID, &o.ExternalURI, &o.QuerySyntax, &o.Code, &o.Path,
	})
	if !ok || empty {
		return o, p, ok
	}
	p = skipXMLSpace(p)
	if o.Name, p, ok = scanTextElement(p, reqName, reqNameEnd); !ok {
		return o, nil, false
	}
	if o.Description, p, ok = scanTextElement(p, reqDescription, reqDescriptionEnd); !ok {
		return o, nil, false
	}
	for bytes.HasPrefix(p, reqBinding) {
		var b WireBinding
		if b, p, ok = scanBinding(p[len(reqBinding):]); !ok {
			return o, nil, false
		}
		o.Bindings = append(o.Bindings, b)
		p = skipXMLSpace(p)
	}
	if !bytes.HasPrefix(p, reqObjectEnd) {
		return o, nil, false
	}
	return o, p[len(reqObjectEnd):], true
}

// scanBinding reads a ServiceBinding from just after its name.
func scanBinding(p []byte) (b WireBinding, rest []byte, ok bool) {
	p, empty, ok := scanAttrs(p, bindingAttrs, []*string{&b.ID, &b.AccessURI, &b.TargetBinding})
	if !ok || empty {
		return b, p, ok
	}
	p = skipXMLSpace(p)
	if b.Description, p, ok = scanTextElement(p, reqDescription, reqDescriptionEnd); !ok {
		return b, nil, false
	}
	if !bytes.HasPrefix(p, reqBindingEnd) {
		return b, nil, false
	}
	return b, p[len(reqBindingEnd):], true
}

// The attributes of a write request's elements, in field order.
var (
	requestAttrs = []string{"session"}
	objectAttrs  = []string{
		"kind", "id", "lid", "status", "owner", "home", "versionName", "parent",
		"alias", "firstName", "middleName", "lastName", "associationType",
		"sourceObject", "targetObject", "externalURI", "querySyntax", "code", "path",
	}
	bindingAttrs = []string{"id", "accessURI", "targetBinding"}
)

// scanAttrs reads the attributes of a start tag whose name has been read,
// through its '>' or, for an empty element, its '/>'. Each attribute is one
// space, one of names, '="', a text value and '"', and its value goes to
// the field of the same index. A name not in names, or one seen already,
// declines.
func scanAttrs(p []byte, names []string, fields []*string) (rest []byte, empty, ok bool) {
	var seen uint32
	for {
		switch {
		case len(p) > 0 && p[0] == '>':
			return p[1:], false, true
		case bytes.HasPrefix(p, reqSelfClose):
			return p[len(reqSelfClose):], true, true
		case len(p) == 0 || p[0] != ' ':
			return nil, false, false
		}
		p = p[1:]
		n := 0
		for n < len(p) && ('a' <= p[n] && p[n] <= 'z' || 'A' <= p[n] && p[n] <= 'Z') {
			n++
		}
		i := 0
		for i < len(names) && names[i] != string(p[:n]) {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 || !bytes.HasPrefix(p[n:], reqEqQuote) {
			return nil, false, false
		}
		seen |= 1 << i
		if *fields[i], p, ok = scanText(p[n+len(reqEqQuote):], '"'); !ok {
			return nil, false, false
		}
		p = p[1:] // the closing quote
	}
}

var reqEqQuote = []byte(`="`)

// scanTextElement reads open, text and close when p starts with open, and
// then any XML whitespace; when it does not, the value is "" and p is
// returned as it is.
func scanTextElement(p, open, close []byte) (value string, rest []byte, ok bool) {
	if !bytes.HasPrefix(p, open) {
		return "", p, true
	}
	if value, p, ok = scanText(p[len(open):], '<'); !ok || !bytes.HasPrefix(p, close) {
		return "", nil, false
	}
	return value, skipXMLSpace(p[len(close):]), true
}

// xmlRefs are the references encoding/xml's marshaller writes, and the
// byte each stands for.
var xmlRefs = [...]struct {
	ref string
	c   byte
}{
	{"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&#34;", '"'},
	{"&#39;", '\''}, {"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'},
}

// xmlRef is the byte the reference p starts with stands for, and the
// reference's length; 0 when p starts with no reference of xmlRefs.
func xmlRef(p []byte) (c byte, n int) {
	for _, r := range xmlRefs {
		if len(p) >= len(r.ref) && string(p[:len(r.ref)]) == r.ref {
			return r.c, len(r.ref)
		}
	}
	return 0, 0
}

// scanText decodes text up to the byte end, which it leaves in rest: any
// character XML allows from U+0020 on except the five markup characters,
// and the references of xmlRefs. Anything else declines — a raw control
// character (encoding/xml would turn a raw '\r' into '\n'), invalid
// UTF-8, U+FFFE, U+FFFF, and every other reference.
func scanText(p []byte, end byte) (value string, rest []byte, ok bool) {
	n, refs := 0, false
	for n < len(p) && p[n] != end {
		switch c := p[n]; {
		case c == '&':
			_, size := xmlRef(p[n:])
			if size == 0 {
				return "", nil, false
			}
			n, refs = n+size, true
		case c < 0x20 || c == '"' || c == '\'' || c == '<' || c == '>':
			return "", nil, false
		case c < utf8.RuneSelf:
			n++
		default:
			r, size := utf8.DecodeRune(p[n:])
			if r == utf8.RuneError && size == 1 || !isXMLChar(r) {
				return "", nil, false
			}
			n += size
		}
	}
	if n == len(p) {
		return "", nil, false
	}
	if !refs {
		return string(p[:n]), p[n:], true
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; {
		if p[i] != '&' {
			b.WriteByte(p[i])
			i++
			continue
		}
		c, size := xmlRef(p[i:])
		b.WriteByte(c)
		i += size
	}
	return b.String(), p[n:], true
}

// appendRegistryResponse appends the SOAP envelope of
// &RegistryResponse{Status: status, IDs: ids} to b: the bytes soap.Marshal
// returns for it, with each empty id left out as omitempty leaves it out.
func appendRegistryResponse(b []byte, status string, ids []string) []byte {
	b = append(b, xml.Header...)
	b = append(b, `<Envelope xmlns="`+soap.NS+`">`+"\n <Body>"+`<RegistryResponse status="`...)
	b = appendXMLText(b, status)
	b = append(b, `">`...)
	for _, id := range ids {
		if id != "" {
			b = append(b, `<ObjectRef>`...)
			b = appendXMLText(b, id)
			b = append(b, `</ObjectRef>`...)
		}
	}
	return append(b, `</RegistryResponse></Body>`+"\n</Envelope>"...)
}

// appendBindingsEnvelope appends the SOAP envelope of ans to b: the bytes
// soap.Marshal(ans) returns, for every ans — the XML declaration, the
// one-space indent MarshalIndent gives Body, the attributes in field
// order, and each URI escaped as encoding/xml escapes character data.
func appendBindingsEnvelope(b []byte, ans *GetBindingsResponse) []byte {
	b = append(b, xml.Header...)
	b = append(b, `<Envelope xmlns="`+soap.NS+`">`+"\n <Body>"+`<GetBindingsResponse filtered="`...)
	b = strconv.AppendBool(b, ans.Filtered)
	b = append(b, `" eligible="`...)
	b = strconv.AppendInt(b, int64(ans.Eligible), 10)
	b = append(b, `" unknown="`...)
	b = strconv.AppendInt(b, int64(ans.Unknown), 10)
	b = append(b, `" ineligible="`...)
	b = strconv.AppendInt(b, int64(ans.Ineligible), 10)
	b = append(b, `" timeWindowOk="`...)
	b = strconv.AppendBool(b, ans.WindowOK)
	b = append(b, `">`...)
	for _, uri := range ans.URIs {
		b = append(b, `<AccessURI>`...)
		b = appendXMLText(b, uri)
		b = append(b, `</AccessURI>`...)
	}
	return append(b, `</GetBindingsResponse></Body>`+"\n</Envelope>"...)
}

// appendXMLText appends s escaped the way encoding/xml escapes character
// data when marshalling. A string of printable ASCII with none of the five
// markup characters in it — every URI a provider is likely to publish — is
// its own escaping; anything else goes through appendXMLTextEscaped.
func appendXMLText(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\'', c == '&', c == '<', c == '>':
			return appendXMLTextEscaped(b, s)
		}
	}
	return append(b, s...)
}

// appendXMLTextEscaped is appendXMLText rune by rune: the five markup
// characters and tab, newline and carriage return as references, and every
// byte sequence that is not a character XML 1.0 allows (invalid UTF-8
// included) as U+FFFD.
func appendXMLTextEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if isXMLChar(r) && !(r == utf8.RuneError && width == 1) {
				continue
			}
			esc = "�"
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// isXMLChar reports whether r is in the Char production of XML 1.0 §2.2.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// appendBindingsJSON appends the REST body of ans to b: the bytes
// json.NewEncoder with SetIndent("", " ") writes for it, for every ans —
// null for nil URIs and [] for empty ones, the one-space indent, the keys
// in field order, the trailing newline.
func appendBindingsJSON(b []byte, ans *GetBindingsResponse) []byte {
	b = append(b, "{\n \"uris\": "...)
	switch {
	case ans.URIs == nil:
		b = append(b, "null"...)
	case len(ans.URIs) == 0:
		b = append(b, "[]"...)
	default:
		sep := "[\n  "
		for _, uri := range ans.URIs {
			b = append(b, sep...)
			b = appendJSONString(b, uri)
			sep = ",\n  "
		}
		b = append(b, "\n ]"...)
	}
	b = append(b, ",\n \"filtered\": "...)
	b = strconv.AppendBool(b, ans.Filtered)
	b = append(b, ",\n \"eligible\": "...)
	b = strconv.AppendInt(b, int64(ans.Eligible), 10)
	b = append(b, ",\n \"unknown\": "...)
	b = strconv.AppendInt(b, int64(ans.Unknown), 10)
	b = append(b, ",\n \"ineligible\": "...)
	b = strconv.AppendInt(b, int64(ans.Ineligible), 10)
	b = append(b, ",\n \"windowOk\": "...)
	b = strconv.AppendBool(b, ans.WindowOK)
	return append(b, "\n}\n"...)
}

// appendJSONString appends s as a JSON string. A string of printable ASCII
// with none of the five bytes encoding/json escapes in it — every URI a
// provider is likely to publish — is its own encoding; anything else is
// encoding/json's to escape.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return appendJSONStringEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONStringEscaped is appendJSONString by way of encoding/json.
func appendJSONStringEscaped(b []byte, s string) []byte {
	quoted, _ := json.Marshal(s) // a string always encodes
	return append(b, quoted...)
}
