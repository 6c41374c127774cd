// bindingswire.go is the hand-written wire code of the one hot exchange,
// GetBindingsRequest → GetBindingsResponse: a recogniser for the SOAP
// request envelope exactly as soap.Marshal emits it, and append-style
// writers for the response in both encodings, byte for byte what
// soap.Marshal and writeJSON's encoder would produce. encoding/xml and
// encoding/json stay the codecs of every other protocol element, the
// decoder of every envelope the recogniser declines, and the references
// all three are fuzzed against.
package registry

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"strconv"
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
		[]byte(`<GetBindingsRequest `),
	}
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
	if !bytes.HasPrefix(raw, reqDecl) {
		return false, nil, false
	}
	p := raw[len(reqDecl):]
	for i := range reqOpen {
		if p, ok = nextElement(p, reqOpen[i]); !ok {
			return false, nil, false
		}
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
	for i := range reqClose {
		if p, ok = nextElement(p, reqClose[i]); !ok {
			return false, nil, false
		}
	}
	if len(skipXMLSpace(p)) != 0 {
		return false, nil, false
	}
	return byID, value, true
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
// the canonical GetBindingsRequest envelope becomes a soapRequest without
// encoding/xml, and every other envelope is left to soap.Unmarshal.
func scanRegistryRequest(raw []byte, req *soapRequest) bool {
	byID, value, ok := scanGetBindings(raw)
	if !ok {
		return false
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
