package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
)

// unmarshalTwoPass is the decode Unmarshal replaced, kept as the reference
// FuzzSOAPUnmarshal holds it to. It tokenizes the envelope to capture the
// Body's innerxml, then tokenizes that again to decode it, and it looks for
// a fault only when "Fault" occurs in the body's first 64 bytes.
func unmarshalTwoPass(data []byte, payload interface{}) error {
	var env envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("soap: bad envelope: %w", err)
	}
	inner := bytes.TrimSpace(env.Body.Inner)
	if len(inner) == 0 {
		return fmt.Errorf("soap: empty body")
	}
	if faultSniff(inner) {
		var f Fault
		if err := xml.Unmarshal(inner, &f); err == nil && f.Code != "" {
			return &f
		}
	}
	if payload == nil {
		return nil
	}
	if err := xml.Unmarshal(inner, payload); err != nil {
		return fmt.Errorf("soap: decode body: %w", err)
	}
	return nil
}

// faultSniff is the reference's test for a fault body.
func faultSniff(inner []byte) bool {
	return bytes.Contains(inner[:min(len(inner), 64)], []byte("Fault"))
}

// referenceBody is the trimmed innerxml of the last Body, as the reference
// sees it; ok is false when the reference rejects the envelope.
func referenceBody(data []byte) (inner []byte, ok bool) {
	var env envelope
	if xml.Unmarshal(data, &env) != nil {
		return nil, false
	}
	return bytes.TrimSpace(env.Body.Inner), true
}
