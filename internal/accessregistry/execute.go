package accessregistry

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/auth"
	"repro/internal/jaxr"
	"repro/internal/rim"
)

// Results is the structured form of the thesis's nested ArrayList return
// value (Fig. 3.51): per-operation result lists.
type Results struct {
	// PublishedOrgIDs holds the organization id of each published
	// organization ("Organization id :- urn:uuid:...").
	PublishedOrgIDs []string
	// ModifiedOrgIDs holds the organization id owning each modified
	// object.
	ModifiedOrgIDs []string
	// AccessURIs holds the (load-balanced) access URIs for accessed
	// services.
	AccessURIs []string
	// Log carries the human-readable progress lines the thesis's API
	// prints ("Service is Deleted", "key was urn:uuid:...").
	Log []string
}

// Lists renders the outer-list-of-inner-lists shape of Fig. 3.51:
// index 0 = published ids, 1 = modified ids, 2 = access URIs.
func (r *Results) Lists() [][]string {
	return [][]string{r.PublishedOrgIDs, r.ModifiedOrgIDs, r.AccessURIs}
}

// Registry is the thesis's Registry wrapper class: it parses the two XML
// inputs, connects, and executes the requested operations.
type Registry struct {
	conn    *jaxr.Connection
	cfg     *ConnectionConfig
	doc     *Document
	verbose io.Writer
}

// Option customizes construction.
type Option func(*Registry)

// WithConnection supplies a ready (possibly localCall-mode) jaxr
// connection, bypassing the keystore login that NewFromFiles performs.
func WithConnection(c *jaxr.Connection) Option {
	return func(r *Registry) { r.conn = c }
}

// WithLogWriter mirrors the thesis API's stdout progress messages to w.
func WithLogWriter(w io.Writer) Option {
	return func(r *Registry) { r.verbose = w }
}

// New builds a Registry from already-parsed inputs.
func New(cfg *ConnectionConfig, doc *Document, opts ...Option) (*Registry, error) {
	r := &Registry{cfg: cfg, doc: doc}
	for _, o := range opts {
		o(r)
	}
	if r.conn == nil {
		if cfg == nil {
			return nil, fmt.Errorf("accessregistry: no connection configuration")
		}
		conn, err := dial(cfg)
		if err != nil {
			return nil, err
		}
		r.conn = conn
	}
	return r, nil
}

// NewFromReaders parses connection and action documents and builds a
// Registry. Pass a nil connection reader when using WithConnection.
func NewFromReaders(connection, actions io.Reader, opts ...Option) (*Registry, error) {
	var cfg *ConnectionConfig
	if connection != nil {
		var err error
		cfg, err = ParseConnection(connection)
		if err != nil {
			return nil, err
		}
	}
	doc, err := ParseActions(actions)
	if err != nil {
		return nil, err
	}
	return New(cfg, doc, opts...)
}

// NewFromFiles is the thesis's two-filename constructor:
// Registry("connection.xml", "PublishToRegistry.xml").
func NewFromFiles(connectionPath, actionsPath string, opts ...Option) (*Registry, error) {
	cfg, err := ParseConnectionFile(connectionPath)
	if err != nil {
		return nil, err
	}
	doc, err := ParseActionsFile(actionsPath)
	if err != nil {
		return nil, err
	}
	return New(cfg, doc, opts...)
}

// dial connects and logs in using the keystore named by connection.xml.
func dial(cfg *ConnectionConfig) (*jaxr.Connection, error) {
	conn := jaxr.Connect(cfg.URL, nil)
	if cfg.Keystore == "" {
		return nil, fmt.Errorf("accessregistry: connection.xml has no <keystore> and no prebuilt connection was supplied")
	}
	ks := auth.NewKeystore()
	f, err := openKeystore(cfg.Keystore)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := ks.Load(f, keystorePassword(cfg)); err != nil {
		return nil, err
	}
	creds, err := ks.Get(cfg.Alias)
	if err != nil {
		return nil, err
	}
	if err := conn.Login(creds); err != nil {
		return nil, err
	}
	return conn, nil
}

func openKeystore(path string) (io.ReadCloser, error) {
	return os.Open(path)
}

func keystorePassword(cfg *ConnectionConfig) string {
	if cfg.Password != "" {
		return cfg.Password
	}
	return auth.DefaultKeystorePassword
}

func (r *Registry) logf(res *Results, format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	res.Log = append(res.Log, line)
	if r.verbose != nil {
		fmt.Fprintln(r.verbose, line)
	}
}

// Execute runs every action in document order and returns the aggregated
// results — the thesis's execute() method.
func (r *Registry) Execute() (*Results, error) {
	res := &Results{}
	for _, a := range r.doc.Actions {
		for _, org := range a.Organizations {
			var err error
			switch a.Type {
			case ActionPublish:
				err = r.publish(res, org)
			case ActionModify:
				err = r.modify(res, org)
			case ActionAccess:
				err = r.access(res, org)
			}
			if err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// publish creates the organization, its services, bindings and
// OffersService associations.
func (r *Registry) publish(res *Results, spec Organization) error {
	org := rim.NewOrganization(spec.Name)
	if spec.Description != nil {
		org.Description = rim.NewIString(spec.Description.Text)
	}
	if spec.Address != nil {
		org.Addresses = append(org.Addresses, rim.PostalAddress{
			StreetNumber: spec.Address.StreetNumber,
			Street:       spec.Address.Street,
			City:         spec.Address.City,
			State:        spec.Address.State,
			Country:      spec.Address.Country,
			PostalCode:   spec.Address.PostalCode,
			Type:         spec.Address.Type,
		})
	}
	if spec.Telephone != nil {
		org.Telephones = append(org.Telephones, rim.TelephoneNumber{
			CountryCode: spec.Telephone.CountryCode,
			AreaCode:    spec.Telephone.AreaCode,
			Number:      spec.Telephone.Number,
			Type:        spec.Telephone.Type,
		})
	}
	objs := []rim.Object{org}
	for _, s := range spec.Services {
		svc := rim.NewService(s.Name, descriptionText(s.Description))
		for _, u := range s.AccessURIs {
			for _, uri := range u.URIs {
				svc.AddBinding(uri)
			}
		}
		objs = append(objs, svc, rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID))
	}
	if _, err := r.conn.Submit(objs...); err != nil {
		return fmt.Errorf("accessregistry: publish %q: %w", spec.Name, err)
	}
	r.logf(res, "Organization saved")
	r.logf(res, " key was %s", org.ID)
	res.PublishedOrgIDs = append(res.PublishedOrgIDs, org.ID)
	return nil
}

func descriptionText(d *Description) string {
	if d == nil {
		return ""
	}
	return d.Text
}

// modify applies Table 3.6's modification matrix.
func (r *Registry) modify(res *Results, spec Organization) error {
	org, err := r.findOrganization(spec.Name)
	if err != nil {
		return fmt.Errorf("accessregistry: modify: organization %q must be published first: %w", spec.Name, err)
	}

	// Organization-level delete (cascades services server-side).
	if spec.Type == OpDelete {
		if err := r.conn.Remove(org.ID); err != nil {
			return fmt.Errorf("accessregistry: delete organization %q: %w", spec.Name, err)
		}
		r.logf(res, "Organization is deleted")
		r.logf(res, " key was %s", org.ID)
		res.ModifiedOrgIDs = append(res.ModifiedOrgIDs, org.ID)
		return nil
	}

	changed := false
	if spec.Description != nil {
		switch spec.Description.Type {
		case OpAdd, OpEdit, "":
			org.Description = rim.NewIString(spec.Description.Text)
		case OpDelete:
			org.Description = rim.InternationalString{}
		}
		changed = true
	}

	for _, s := range spec.Services {
		if err := r.modifyService(res, org, s); err != nil {
			return err
		}
	}

	if changed {
		if _, err := r.conn.Update(org); err != nil {
			return fmt.Errorf("accessregistry: update organization %q: %w", spec.Name, err)
		}
		r.logf(res, "Organization Modified")
		r.logf(res, " key was %s", org.ID)
	}
	res.ModifiedOrgIDs = append(res.ModifiedOrgIDs, org.ID)
	return nil
}

func (r *Registry) modifyService(res *Results, org *rim.Organization, s Service) error {
	switch s.Type {
	case OpAdd:
		// "A Web Service can be added to an organization that has been
		// published before" (Table 3.6).
		svc := rim.NewService(s.Name, descriptionText(s.Description))
		for _, u := range s.AccessURIs {
			for _, uri := range u.URIs {
				svc.AddBinding(uri)
			}
		}
		assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
		if _, err := r.conn.Submit(svc, assoc); err != nil {
			return fmt.Errorf("accessregistry: add service %q: %w", s.Name, err)
		}
		r.logf(res, "Service is Added")
		r.logf(res, " key was %s", svc.ID)
		return nil

	case OpDelete:
		svc, err := r.findOfferedService(org, s.Name)
		if err != nil {
			return err
		}
		if err := r.conn.Remove(svc.ID); err != nil {
			return fmt.Errorf("accessregistry: delete service %q: %w", s.Name, err)
		}
		r.logf(res, "Service is Deleted")
		r.logf(res, " key was %s", svc.ID)
		return nil

	default: // "" or edit: element-level modifications
		svc, err := r.findOfferedService(org, s.Name)
		if err != nil {
			return err
		}
		changed := false
		if s.Description != nil {
			switch s.Description.Type {
			case OpAdd, OpEdit, "":
				svc.Description = rim.NewIString(s.Description.Text)
				r.logf(res, "ServiceDescription Added")
				r.logf(res, " key was %s", svc.ID)
			case OpDelete:
				svc.Description = rim.InternationalString{}
				r.logf(res, "ServiceDescription Deleted")
				r.logf(res, " key was %s", svc.ID)
			}
			changed = true
		}
		for _, u := range s.AccessURIs {
			switch u.Type {
			case OpAdd, "":
				for _, uri := range u.URIs {
					// AddBinding is duplicate-safe, reproducing
					// testExecute_DuplicateAccessURI.
					before := len(svc.Bindings)
					svc.AddBinding(uri)
					if len(svc.Bindings) > before {
						r.logf(res, "ServiceBinding is added")
						r.logf(res, " key was %s", svc.BindingByURI(uri).ID)
					}
				}
				changed = true
			case OpDelete:
				for _, uri := range u.URIs {
					if b := svc.BindingByURI(uri); b != nil {
						svc.RemoveBinding(uri)
						r.logf(res, "ServiceBinding is deleted")
						r.logf(res, " key was %s", b.ID)
					}
				}
				changed = true
			}
		}
		if changed {
			if _, err := r.conn.Update(svc); err != nil {
				return fmt.Errorf("accessregistry: update service %q: %w", s.Name, err)
			}
		}
		return nil
	}
}

// access resolves services to their (load-balanced) access URIs. The
// thesis requires the service to be enclosed by its parent organization:
// "Just providing a service name without an organization name ... would
// lead to an error."
func (r *Registry) access(res *Results, spec Organization) error {
	org, err := r.findOrganization(spec.Name)
	if err != nil {
		return fmt.Errorf("accessregistry: access: organization %q: %w", spec.Name, err)
	}
	if len(spec.Services) == 0 {
		return fmt.Errorf("accessregistry: access: no <service> specified under organization %q", spec.Name)
	}
	for _, s := range spec.Services {
		if _, err := r.findOfferedService(org, s.Name); err != nil {
			return err
		}
		uris, _, err := r.conn.ServiceBindings(s.Name)
		if err != nil {
			return fmt.Errorf("accessregistry: access service %q: %w", s.Name, err)
		}
		res.AccessURIs = append(res.AccessURIs, uris...)
		for _, u := range uris {
			r.logf(res, "%s", u)
		}
	}
	return nil
}

func (r *Registry) findOrganization(name string) (*rim.Organization, error) {
	objs, err := r.conn.Find("Organization", name)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		if org, ok := o.(*rim.Organization); ok && strings.EqualFold(org.Name.String(), name) {
			return org, nil
		}
	}
	return nil, fmt.Errorf("accessregistry: organization %q not found", name)
}

// findOfferedService checks that the named service exists and is offered
// by the given organization.
func (r *Registry) findOfferedService(org *rim.Organization, name string) (*rim.Service, error) {
	objs, err := r.conn.Find("Service", name)
	if err != nil {
		return nil, err
	}
	var svc *rim.Service
	for _, o := range objs {
		if s, ok := o.(*rim.Service); ok && strings.EqualFold(s.Name.String(), name) {
			svc = s
			break
		}
	}
	if svc == nil {
		return nil, fmt.Errorf("accessregistry: service %q is not published", name)
	}
	// Verify the OffersService relationship via the association table.
	rows, err := r.conn.AdhocQuery(
		"SELECT a.id FROM Association a WHERE a.associationtype = 'OffersService' AND a.sourceid = $src AND a.targetid = $dst",
		map[string]string{"src": org.ID, "dst": svc.ID})
	if err != nil {
		return nil, err
	}
	if rows.Total == 0 {
		return nil, fmt.Errorf("accessregistry: service %q does not belong to organization %q", name, org.Name.String())
	}
	return svc, nil
}
