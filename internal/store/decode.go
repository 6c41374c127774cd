package store

import (
	"encoding/json"

	"repro/internal/jsonscan"
	"repro/internal/rim"
)

// objectScan decodes the JSON of the two classes every publish stores — a
// Service with its bindings, 99 % of a checkpoint's bytes, and the
// AuditableEvent beside it in each log record — as the appenders of
// encode.go, and json.Marshal, write it: exact-case keys, each at most
// once, in any order, over the literals jsonscan accepts. It is a second
// reader of one format, never a second format: encoding/json remains the
// decoder of every other class and of every input this one declines, and
// the reference it is fuzzed against. Whatever it accepts it decodes to
// exactly the value json.Unmarshal would have built, out of strings that
// are copies of the input, never views of it.
//
// Values that repeat are shared rather than copied: an ObjectType, Status
// or EventKind equal to a rim constant becomes that constant, likewise the
// default locale; LID shares ID's string, a binding's access URI its
// name's, a binding's ServiceID and Owner its service's.
type objectScan struct {
	jsonscan.Scanner
	// reflected is set once a field went through encoding/json: the object
	// may then hold what a rim Clone would normalise (an empty slice, slots
	// on a nested classification), where every value the scanner builds
	// itself is one Clone reproduces exactly.
	reflected bool
}

// One bit per RegistryObject field; Service and ServiceBinding number their
// own from ownField on.
const (
	fieldID jsonscan.Fields = 1 << iota
	fieldLID
	fieldName
	fieldDescription
	fieldObjectType
	fieldStatus
	fieldHome
	fieldOwner
	fieldVersion
	fieldSlots
	fieldClassifications
	fieldExternalIdentifiers
	ownField
)

// baseField decodes the value of the RegistryObject member key into r.
func (s *objectScan) baseField(r *rim.RegistryObject, key []byte, seen *jsonscan.Fields) bool {
	var v string
	ok := false
	switch string(key) {
	case "ID":
		r.ID, ok = s.String()
		return ok && seen.First(fieldID)
	case "LID":
		r.LID, ok = s.String(r.ID)
		return ok && seen.First(fieldLID)
	case "Name":
		return s.istring(&r.Name) && seen.First(fieldName)
	case "Description":
		return s.istring(&r.Description) && seen.First(fieldDescription)
	case "ObjectType":
		v, ok = s.String(string(rim.TypeService), string(rim.TypeServiceBinding), string(rim.TypeAuditableEvent))
		r.ObjectType = rim.ObjectType(v)
		return ok && seen.First(fieldObjectType)
	case "Status":
		v, ok = s.String(string(rim.StatusSubmitted), string(rim.StatusApproved), string(rim.StatusDeprecated), string(rim.StatusWithdrawn))
		r.Status = rim.Status(v)
		return ok && seen.First(fieldStatus)
	case "Home":
		r.Home, ok = s.String()
		return ok && seen.First(fieldHome)
	case "Owner":
		r.Owner, ok = s.String()
		return ok && seen.First(fieldOwner)
	case "Version":
		return s.version(&r.Version) && seen.First(fieldVersion)
	case "Slots":
		return s.reflect(&r.Slots) && seen.First(fieldSlots)
	case "Classifications":
		return s.reflect(&r.Classifications) && seen.First(fieldClassifications)
	case "ExternalIdentifiers":
		return s.reflect(&r.ExternalIdentifiers) && seen.First(fieldExternalIdentifiers)
	}
	return false
}

// reflect decodes the slice the cursor is on into v: nil for null, and
// through json.Unmarshal on its span otherwise.
func (s *objectScan) reflect(v any) bool {
	if s.Lit("null") {
		return true
	}
	span, ok := s.Span()
	if !ok || span[0] != '[' {
		return false
	}
	s.reflected = true
	return json.Unmarshal(span, v) == nil
}

func (s *objectScan) istring(v *rim.InternationalString) bool {
	if !s.Lit(`{"Localized":`) {
		return false
	}
	if s.Lit("null") {
		return s.Lit("}")
	}
	if !s.Lit("[") {
		return false
	}
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if !ok {
			return false
		}
		if done {
			return s.Lit("}")
		}
		var l rim.LocalizedString
		if !s.localized(&l) {
			return false
		}
		v.Localized = append(v.Localized, l)
	}
}

func (s *objectScan) localized(l *rim.LocalizedString) bool {
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok || done {
			return ok
		}
		switch string(key) {
		case "Lang":
			l.Lang, ok = s.String("en-US")
			ok = ok && seen.First(1)
		case "Charset":
			l.Charset, ok = s.String("UTF-8")
			ok = ok && seen.First(2)
		case "Value":
			l.Value, ok = s.String()
			ok = ok && seen.First(4)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

func (s *objectScan) version(v *rim.VersionInfo) bool {
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok || done {
			return ok
		}
		switch string(key) {
		case "VersionName":
			v.VersionName, ok = s.String()
			ok = ok && seen.First(1)
		case "Comment":
			v.Comment, ok = s.String()
			ok = ok && seen.First(2)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

func (s *objectScan) service(svc *rim.Service) bool {
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok || done {
			return ok
		}
		if string(key) == "Bindings" {
			ok = s.bindings(svc) && seen.First(ownField)
		} else {
			ok = s.baseField(&svc.RegistryObject, key, &seen)
		}
		if !ok {
			return false
		}
	}
}

func (s *objectScan) bindings(svc *rim.Service) bool {
	if s.Lit("null") {
		return true
	}
	if !s.Lit("[") {
		return false
	}
	for first := true; ; first = false {
		done, ok := s.Elem(first)
		if !ok || done {
			return ok
		}
		b := new(rim.ServiceBinding)
		if !s.binding(b, svc) {
			return false
		}
		svc.Bindings = append(svc.Bindings, b)
	}
}

// binding decodes one ServiceBinding of svc.
func (s *objectScan) binding(b *rim.ServiceBinding, svc *rim.Service) bool {
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok || done {
			return ok
		}
		switch string(key) {
		case "ServiceID":
			b.ServiceID, ok = s.String(svc.ID)
			ok = ok && seen.First(ownField)
		case "Owner":
			b.Owner, ok = s.String(svc.Owner)
			ok = ok && seen.First(fieldOwner)
		case "AccessURI":
			b.AccessURI, ok = s.String(b.Name.String())
			ok = ok && seen.First(ownField<<1)
		case "TargetBindingID":
			b.TargetBindingID, ok = s.String()
			ok = ok && seen.First(ownField<<2)
		case "SpecificationLinks":
			ok = s.reflect(&b.SpecificationLinks) && seen.First(ownField<<3)
		default:
			ok = s.baseField(&b.RegistryObject, key, &seen)
		}
		if !ok {
			return false
		}
	}
}

// event decodes one AuditableEvent.
func (s *objectScan) event(e *rim.AuditableEvent) bool {
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok || done {
			return ok
		}
		var v string
		switch string(key) {
		case "EventKind":
			v, ok = s.String(string(rim.EventCreated), string(rim.EventUpdated), string(rim.EventApproved),
				string(rim.EventDeprecated), string(rim.EventUndeprecated), string(rim.EventDeleted), string(rim.EventVersioned),
				string(rim.EventRelocated))
			e.EventKind = rim.EventType(v)
			ok = ok && seen.First(ownField)
		case "UserID":
			e.UserID, ok = s.String()
			ok = ok && seen.First(ownField<<1)
		case "Timestamp":
			ok = s.Time(&e.Timestamp) && seen.First(ownField<<2)
		case "AffectedIDs":
			if !s.Lit("null") {
				e.AffectedIDs, ok = s.Strings()
			}
			ok = ok && seen.First(ownField<<3)
		case "RequestID":
			e.RequestID, ok = s.String()
			ok = ok && seen.First(ownField<<4)
		default:
			ok = s.baseField(&e.RegistryObject, key, &seen)
		}
		if !ok {
			return false
		}
	}
}
