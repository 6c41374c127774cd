package store

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/jsonscan"
	"repro/internal/rim"
)

// The classes a write stores on every publish — a Service with its
// bindings and their specification links, and the AuditableEvent beside it
// — are written by hand, straight into the record or frame that carries
// them: json.Marshal's bytes exactly (compact, HTML-escaped, fields in
// declaration order with the embedded RegistryObject's first, null for a
// nil slice or pointer), without reflection and without a buffer of their
// own. Every other class, and a Timestamp that RFC 3339 cannot write, is
// left to encoding/json, which is also the reference FuzzEncodeObject holds
// these appenders to.

// AppendEnvelope appends o as an Envelope — {"kind":…,"data":…}, the bytes
// json.Marshal of Envelope{kind, json.Marshal(o)} would be — to b.
func AppendEnvelope(b []byte, o rim.Object) ([]byte, error) {
	start := len(b)
	b = append(b, `{"kind":`...)
	b = jsonscan.AppendString(b, kindOf(o))
	b = append(b, `,"data":`...)
	b, ok := appendObject(b, o)
	if !ok {
		// A RawMessage is compacted and HTML-escaped on the way out, which
		// json.Marshal's output already is.
		data, err := json.Marshal(o)
		if err != nil {
			return b[:start], fmt.Errorf("store: marshal %s: %w", o.Base().ID, err)
		}
		b = append(b, data...)
	}
	return append(b, '}'), nil
}

// appendObject appends o's JSON to b if its class has an appender; ok is
// false, and b returned as it came, for any other class or value.
func appendObject(b []byte, o rim.Object) (_ []byte, ok bool) {
	switch o := o.(type) {
	case *rim.Service:
		return appendService(b, o), true
	case *rim.ServiceBinding:
		return appendBinding(b, o), true
	case *rim.SpecificationLink:
		return appendSpecificationLink(b, o), true
	case *rim.AuditableEvent:
		return appendAuditableEvent(b, o)
	}
	return b, false
}

func appendService(b []byte, s *rim.Service) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = appendBase(append(b, '{'), &s.RegistryObject)
	b = append(b, `,"Bindings":`...)
	b = appendList(b, s.Bindings, appendBinding)
	return append(b, '}')
}

func appendBinding(b []byte, sb *rim.ServiceBinding) []byte {
	if sb == nil {
		return append(b, "null"...)
	}
	b = appendBase(append(b, '{'), &sb.RegistryObject)
	b = appendField(b, `,"ServiceID":`, sb.ServiceID)
	b = appendField(b, `,"AccessURI":`, sb.AccessURI)
	b = appendField(b, `,"TargetBindingID":`, sb.TargetBindingID)
	b = append(b, `,"SpecificationLinks":`...)
	b = appendList(b, sb.SpecificationLinks, appendSpecificationLink)
	return append(b, '}')
}

func appendSpecificationLink(b []byte, l *rim.SpecificationLink) []byte {
	if l == nil {
		return append(b, "null"...)
	}
	b = appendBase(append(b, '{'), &l.RegistryObject)
	b = appendField(b, `,"ServiceBindingID":`, l.ServiceBindingID)
	b = appendField(b, `,"SpecificationObject":`, l.SpecificationObject)
	b = append(b, `,"UsageDescription":`...)
	b = appendIString(b, l.UsageDescription)
	b = append(b, `,"UsageParameters":`...)
	b = appendList(b, l.UsageParameters, jsonscan.AppendString)
	return append(b, '}')
}

// appendAuditableEvent declines, ok false, a Timestamp whose MarshalJSON
// fails: json.Marshal's error is then the caller's to return.
func appendAuditableEvent(b []byte, e *rim.AuditableEvent) (_ []byte, ok bool) {
	if e == nil {
		return append(b, "null"...), true
	}
	start := len(b)
	b = appendBase(append(b, '{'), &e.RegistryObject)
	b = appendField(b, `,"EventKind":`, string(e.EventKind))
	b = appendField(b, `,"UserID":`, e.UserID)
	b = append(b, `,"Timestamp":"`...)
	if b, ok = appendTime(b, e.Timestamp); !ok {
		return b[:start], false
	}
	b = append(b, `","AffectedIDs":`...)
	b = appendList(b, e.AffectedIDs, jsonscan.AppendString)
	b = appendField(b, `,"RequestID":`, e.RequestID)
	return append(b, '}'), true
}

// appendTime appends t as time.Time.MarshalJSON writes it, less the quotes,
// and reports false where that method fails: a year outside [0,9999] or a
// zone offset of 24 hours or more, tested on the formatted text as that
// method tests it.
func appendTime(b []byte, t time.Time) ([]byte, bool) {
	n := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n+len("9999")] != '-' {
		return b, false
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("07:00"):]
		if c := b[len(b)-len("Z07:00")]; '0' <= c && c <= '9' || 10*(zone[0]-'0')+zone[1]-'0' >= 24 {
			return b, false
		}
	}
	return b, true
}

// appendBase appends the members of an embedded RegistryObject, without
// braces.
func appendBase(b []byte, r *rim.RegistryObject) []byte {
	b = appendField(b, `"ID":`, r.ID)
	b = appendField(b, `,"LID":`, r.LID)
	b = append(b, `,"Name":`...)
	b = appendIString(b, r.Name)
	b = append(b, `,"Description":`...)
	b = appendIString(b, r.Description)
	b = appendField(b, `,"ObjectType":`, string(r.ObjectType))
	b = appendField(b, `,"Status":`, string(r.Status))
	b = appendField(b, `,"Home":`, r.Home)
	b = appendField(b, `,"Owner":`, r.Owner)
	b = appendField(b, `,"Version":{"VersionName":`, r.Version.VersionName)
	b = appendField(b, `,"Comment":`, r.Version.Comment)
	b = append(b, `},"Slots":`...)
	b = appendList(b, r.Slots, appendSlot)
	b = append(b, `,"Classifications":`...)
	b = appendList(b, r.Classifications, appendClassification)
	b = append(b, `,"ExternalIdentifiers":`...)
	return appendList(b, r.ExternalIdentifiers, appendExternalIdentifier)
}

func appendClassification(b []byte, c *rim.Classification) []byte {
	if c == nil {
		return append(b, "null"...)
	}
	b = appendBase(append(b, '{'), &c.RegistryObject)
	b = appendField(b, `,"ClassifiedObjectID":`, c.ClassifiedObjectID)
	b = appendField(b, `,"ClassificationScheme":`, c.ClassificationScheme)
	b = appendField(b, `,"ClassificationNode":`, c.ClassificationNode)
	b = appendField(b, `,"NodeRepresentation":`, c.NodeRepresentation)
	return append(b, '}')
}

func appendExternalIdentifier(b []byte, e *rim.ExternalIdentifier) []byte {
	if e == nil {
		return append(b, "null"...)
	}
	b = appendBase(append(b, '{'), &e.RegistryObject)
	b = appendField(b, `,"RegistryObjectID":`, e.RegistryObjectID)
	b = appendField(b, `,"IdentificationScheme":`, e.IdentificationScheme)
	b = appendField(b, `,"Value":`, e.Value)
	return append(b, '}')
}

func appendSlot(b []byte, s rim.Slot) []byte {
	b = appendField(b, `{"Name":`, s.Name)
	b = appendField(b, `,"SlotType":`, s.SlotType)
	b = append(b, `,"Values":`...)
	b = appendList(b, s.Values, jsonscan.AppendString)
	return append(b, '}')
}

func appendIString(b []byte, s rim.InternationalString) []byte {
	b = append(b, `{"Localized":`...)
	b = appendList(b, s.Localized, func(b []byte, l rim.LocalizedString) []byte {
		b = appendField(b, `{"Lang":`, l.Lang)
		b = appendField(b, `,"Charset":`, l.Charset)
		b = appendField(b, `,"Value":`, l.Value)
		return append(b, '}')
	})
	return append(b, '}')
}

// appendField appends a member's key, given with its punctuation, and its
// string value.
func appendField(b []byte, key, v string) []byte {
	return jsonscan.AppendString(append(b, key...), v)
}

// appendList appends a slice as encoding/json does: null when nil, [] when
// empty, otherwise each element by elem.
func appendList[T any](b []byte, list []T, elem func([]byte, T) []byte) []byte {
	if list == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, v)
	}
	return append(b, ']')
}
