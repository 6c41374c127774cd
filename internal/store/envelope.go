package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/rim"
)

// Envelope tags a serialized object with its concrete class so a decoder
// can rebuild the right Go type. It is the unit of object persistence in
// the write-ahead log's mutation records; snapshot frames carry the same
// kind tag in front of the same JSON.
type Envelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

func kindOf(o rim.Object) string { return o.Base().ObjectType.Short() }

// EncodeObject marshals o into a kind-tagged envelope.
func EncodeObject(o rim.Object) (Envelope, error) {
	data, err := json.Marshal(o)
	if err != nil {
		return Envelope{}, fmt.Errorf("store: marshal %s: %w", o.Base().ID, err)
	}
	return Envelope{Kind: kindOf(o), Data: data}, nil
}

// Decode rebuilds the concrete rim object the envelope carries.
func (e Envelope) Decode() (rim.Object, error) {
	return decodeObject(e.Kind, e.Data)
}

// decodeObject unmarshals data into a fresh object of the named class.
func decodeObject(kind string, data []byte) (rim.Object, error) {
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
