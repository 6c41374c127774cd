package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/jsonscan"
	"repro/internal/rim"
)

// Envelope tags a serialized object with its concrete class so a decoder
// can rebuild the right Go type. It is the unit of object persistence in
// the write-ahead log's mutation records, written by AppendEnvelope;
// snapshot frames carry the same kind tag in front of the same JSON.
type Envelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

func kindOf(o rim.Object) string { return o.Base().ObjectType.Short() }

// decodeObject rebuilds the object of the named class from its JSON: by the
// scanner where it can (decode.go), by json.Unmarshal on the whole of data
// where the scanner declines, so that the result — and the error — on every
// input is encoding/json's. exact reports that the scanner built every value
// itself, in which case rim.CloneObject(o) is a plain copy of o.
func decodeObject(kind string, data []byte) (o rim.Object, exact bool, err error) {
	if o, exact, ok := scanObject(kind, data); ok {
		return o, exact, nil
	}
	o, err = unmarshalObject(kind, data)
	return o, false, err
}

// scanObject is decodeObject's fast path; ok is false for a class or an
// input it leaves to unmarshalObject.
func scanObject(kind string, data []byte) (o rim.Object, exact, ok bool) {
	s := objectScan{Scanner: jsonscan.New(data)}
	switch kind {
	case "Service":
		svc := new(rim.Service)
		o, ok = svc, s.service(svc)
	case "AuditableEvent":
		e := new(rim.AuditableEvent)
		o, ok = e, s.event(e)
	default:
		return nil, false, false
	}
	return o, !s.reflected, ok && s.AtEnd()
}

// unmarshalObject unmarshals data into a fresh object of the named class.
func unmarshalObject(kind string, data []byte) (rim.Object, error) {
	var o rim.Object
	switch kind {
	case "Organization":
		o = new(rim.Organization)
	case "User":
		o = new(rim.User)
	case "Service":
		o = new(rim.Service)
	case "ServiceBinding":
		o = new(rim.ServiceBinding)
	case "SpecificationLink":
		o = new(rim.SpecificationLink)
	case "Association":
		o = new(rim.Association)
	case "Classification":
		o = new(rim.Classification)
	case "ClassificationScheme":
		o = new(rim.ClassificationScheme)
	case "ClassificationNode":
		o = new(rim.ClassificationNode)
	case "RegistryPackage":
		o = new(rim.RegistryPackage)
	case "ExternalLink":
		o = new(rim.ExternalLink)
	case "ExternalIdentifier":
		o = new(rim.ExternalIdentifier)
	case "AuditableEvent":
		o = new(rim.AuditableEvent)
	case "AdhocQuery":
		o = new(rim.AdhocQuery)
	case "ExtrinsicObject":
		o = new(rim.ExtrinsicObject)
	default:
		return nil, fmt.Errorf("store: unknown object kind %q", kind)
	}
	if err := json.Unmarshal(data, o); err != nil {
		return nil, fmt.Errorf("store: decode %s: %w", kind, err)
	}
	return o, nil
}

// defect names what makes a decoded object unfit to be indexed — no id, or
// a null where a nested object belongs, which the indexes and every Clone
// would dereference — and returns "" for an object that is fit.
func defect(o rim.Object) string {
	if o.Base().ID == "" {
		return "without an id"
	}
	nullIn := func(r *rim.RegistryObject) bool {
		for _, c := range r.Classifications {
			if c == nil {
				return true
			}
		}
		for _, e := range r.ExternalIdentifiers {
			if e == nil {
				return true
			}
		}
		return false
	}
	nullInBinding := func(b *rim.ServiceBinding) bool {
		if b == nil || nullIn(&b.RegistryObject) {
			return true
		}
		for _, l := range b.SpecificationLinks {
			if l == nil || nullIn(&l.RegistryObject) {
				return true
			}
		}
		return false
	}
	null := nullIn(o.Base())
	switch o := o.(type) {
	case *rim.Service:
		for _, b := range o.Bindings {
			null = null || nullInBinding(b)
		}
	case *rim.ServiceBinding:
		null = null || nullInBinding(o)
	}
	if null {
		return "with a null element"
	}
	return ""
}
