package rim

import (
	"fmt"
	"net/url"
	"strings"
)

// Service represents a published Web Service (Fig. 1.18). Its Description
// may embed the load-balancing <constraint> block defined in Chapter 3; the
// core package parses it at discovery time. A Service owns a collection of
// ServiceBindings.
type Service struct {
	RegistryObject
	Bindings []*ServiceBinding
}

// NewService creates a Service with the given name and description.
func NewService(name, description string) *Service {
	s := &Service{RegistryObject: NewRegistryObject(TypeService, name)}
	s.Description = NewIString(description)
	return s
}

// Validate checks Service invariants, including those of its bindings.
func (s *Service) Validate() error {
	if err := s.RegistryObject.Validate(); err != nil {
		return err
	}
	if s.ObjectType != TypeService {
		return fmt.Errorf("rim: service %s has objectType %s", s.ID, s.ObjectType)
	}
	if s.Name.IsEmpty() {
		return fmt.Errorf("rim: service %s must have a name", s.ID)
	}
	seen := make(map[string]bool, len(s.Bindings))
	for _, b := range s.Bindings {
		if b.ServiceID != s.ID {
			return fmt.Errorf("rim: binding %s belongs to %s, embedded in %s", b.ID, b.ServiceID, s.ID)
		}
		if err := b.Validate(); err != nil {
			return err
		}
		if b.AccessURI != "" && seen[b.AccessURI] {
			return fmt.Errorf("rim: service %s has duplicate access uri %s", s.ID, b.AccessURI)
		}
		seen[b.AccessURI] = true
	}
	return nil
}

// AccessURIs returns the bindings' access URIs in their stored order — the
// order the stock registry would return them, before the load-balancing
// scheme reorders/filters (Fig. 3.5).
func (s *Service) AccessURIs() []string {
	uris := make([]string, 0, len(s.Bindings))
	for _, b := range s.Bindings {
		if b.AccessURI != "" {
			uris = append(uris, b.AccessURI)
		}
	}
	return uris
}

// BindingByURI returns the binding with the given access URI, or nil.
func (s *Service) BindingByURI(uri string) *ServiceBinding {
	for _, b := range s.Bindings {
		if b.AccessURI == uri {
			return b
		}
	}
	return nil
}

// AddBinding appends a new binding for the given access URI and returns it.
// Adding a duplicate URI returns the existing binding unchanged, matching
// the AccessRegistry API's duplicate-URI test case (Table 3.9,
// testExecute_DuplicateAccessURI).
func (s *Service) AddBinding(accessURI string) *ServiceBinding {
	if b := s.BindingByURI(accessURI); b != nil {
		return b
	}
	b := NewServiceBinding(s.ID, accessURI)
	s.Bindings = append(s.Bindings, b)
	return b
}

// RemoveBinding deletes the binding with the given URI, reporting whether
// it was present.
func (s *Service) RemoveBinding(accessURI string) bool {
	for i, b := range s.Bindings {
		if b.AccessURI == accessURI {
			s.Bindings = append(s.Bindings[:i], s.Bindings[i+1:]...)
			return true
		}
	}
	return false
}

// ServiceBinding represents technical information on one specific way to
// access a Service: the access URI of a deployment host, an optional
// reference to another binding (Target Binding, Fig. 3.38), and
// SpecificationLinks to technical documents such as WSDL.
type ServiceBinding struct {
	RegistryObject
	ServiceID          string
	AccessURI          string
	TargetBindingID    string
	SpecificationLinks []*SpecificationLink
}

// NewServiceBinding creates a binding of the given service to an access URI.
func NewServiceBinding(serviceID, accessURI string) *ServiceBinding {
	b := &ServiceBinding{
		RegistryObject: NewRegistryObject(TypeServiceBinding, accessURI),
		ServiceID:      serviceID,
		AccessURI:      accessURI,
	}
	return b
}

// Validate checks binding invariants. An AccessURI, when present, must be a
// valid absolute URI (the registry returns it for dynamic invocation).
func (b *ServiceBinding) Validate() error {
	if err := b.RegistryObject.Validate(); err != nil {
		return err
	}
	if b.ObjectType != TypeServiceBinding {
		return fmt.Errorf("rim: binding %s has objectType %s", b.ID, b.ObjectType)
	}
	if b.AccessURI == "" && b.TargetBindingID == "" {
		return fmt.Errorf("rim: binding %s needs an accessURI or a targetBinding", b.ID)
	}
	if b.AccessURI != "" {
		u, err := url.Parse(b.AccessURI)
		if err != nil || !u.IsAbs() || u.Host == "" {
			return fmt.Errorf("rim: binding %s has invalid accessURI %q", b.ID, b.AccessURI)
		}
	}
	for _, l := range b.SpecificationLinks {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Host extracts the hostname (without port) from the access URI; this is
// the key into the NodeState table (Fig. 3.2, field HOST).
func (b *ServiceBinding) Host() string {
	return HostOfURI(b.AccessURI)
}

// HostOfURI extracts the hostname from an access URI — no port, and an
// IPv6 literal without its brackets, exactly url.URL.Hostname — returning
// "" for unparseable input. It runs once per binding when a service is first
// discovered (store.Digest) and per call on the simulators' hand-built
// views, so the shape every published binding has,
//
//	scheme "://" host [ ":" digits ] [ "/" path ]
//
// with host bytes [A-Za-z0-9.-] and path bytes [A-Za-z0-9._~/-], is
// recognised by a scan that allocates nothing; userinfo, bracketed
// literals, escapes, queries, fragments and everything else go through
// url.Parse.
func HostOfURI(uri string) string {
	i := 0
	for i < len(uri) && isSchemeByte(uri[i], i == 0) {
		i++
	}
	if i == 0 || !strings.HasPrefix(uri[i:], "://") {
		return hostOfURIParsed(uri)
	}
	start := i + len("://")
	end := start
	for end < len(uri) && isHostByte(uri[end]) {
		end++
	}
	if end == start {
		return hostOfURIParsed(uri)
	}
	i = end
	if i < len(uri) && uri[i] == ':' {
		for i++; i < len(uri) && '0' <= uri[i] && uri[i] <= '9'; i++ {
		}
	}
	if i < len(uri) && uri[i] != '/' {
		return hostOfURIParsed(uri)
	}
	for ; i < len(uri); i++ {
		if c := uri[i]; !isHostByte(c) && c != '/' && c != '_' && c != '~' {
			return hostOfURIParsed(uri)
		}
	}
	return uri[start:end]
}

// hostOfURIParsed is HostOfURI by way of url.Parse: the definition the
// scan above must agree with on every input it accepts.
func hostOfURIParsed(uri string) string {
	u, err := url.Parse(uri)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// isSchemeByte reports whether c may appear in a URI scheme, whose first
// byte must be a letter.
func isSchemeByte(c byte, first bool) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		return true
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.':
		return !first
	}
	return false
}

// isHostByte reports whether c is a letter, a digit, '.' or '-'.
func isHostByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '-'
}

// SpecificationLink links a ServiceBinding to one of its technical
// specifications (e.g. a WSDL document stored as an ExtrinsicObject).
type SpecificationLink struct {
	RegistryObject
	ServiceBindingID    string
	SpecificationObject string // id of the spec document object
	UsageDescription    InternationalString
	UsageParameters     []string
}

// NewSpecificationLink creates a link from a binding to a specification
// object.
func NewSpecificationLink(bindingID, specObjectID string) *SpecificationLink {
	return &SpecificationLink{
		RegistryObject:      NewRegistryObject(TypeSpecificationLink, ""),
		ServiceBindingID:    bindingID,
		SpecificationObject: specObjectID,
	}
}

// Validate checks SpecificationLink invariants.
func (l *SpecificationLink) Validate() error {
	if err := l.RegistryObject.Validate(); err != nil {
		return err
	}
	if l.SpecificationObject == "" {
		return fmt.Errorf("rim: specification link %s has no specification object", l.ID)
	}
	return nil
}

// ExtrinsicObject holds repository content whose type is not intrinsically
// known to the registry — XML schemas, WSDL files, images. The repository
// stores the payload; the registry stores this metadata.
type ExtrinsicObject struct {
	RegistryObject
	MimeType    string
	ContentID   string // key into the repository's content store
	IsOpaque    bool
	ContentHash string
}

// NewExtrinsicObject creates metadata for one repository item.
func NewExtrinsicObject(name, mimeType string) *ExtrinsicObject {
	e := &ExtrinsicObject{RegistryObject: NewRegistryObject(TypeExtrinsicObject, name)}
	e.MimeType = mimeType
	return e
}
