// Package jaxr is the registry client API layer of thesis Figure 2.1/2.2:
// the JAXR-provider analog that programs use to talk to the registry. A
// Connection either speaks the SOAP protocol over HTTP to a remote
// registry server, or — in localCall mode, exactly like freebXML's
// localCall=true optimization (§2.2.1) — bypasses SOAP and invokes the
// QueryManager and LifeCycleManager interfaces directly.
//
// The BusinessLifeCycleManager and BusinessQueryManager facades mirror the
// JAXR API surface the thesis's AccessRegistry API wraps; the JUnit cases
// testGetBusinessLifeCycleManager / testGetBusinessQueryManager (Table
// 3.9) map to the accessor tests here.
package jaxr

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/lcm"
	"repro/internal/qm"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/soap"
	"repro/internal/sqlq"
)

// Connection is a client connection to a registry.
type Connection struct {
	// Remote mode.
	baseURL string
	client  *http.Client

	// Local mode.
	local *registry.Registry

	token  string
	userID string
	alias  string
}

// Connect opens a remote connection to a registry server's base URL (the
// connection.xml <url> value). A nil client means one bounded by
// soap.DefaultTimeout.
func Connect(baseURL string, client *http.Client) *Connection {
	if client == nil {
		client = &http.Client{Timeout: soap.DefaultTimeout}
	}
	return &Connection{baseURL: baseURL, client: client}
}

// ConnectLocal opens a localCall-mode connection.
func ConnectLocal(reg *registry.Registry) *Connection {
	return &Connection{local: reg}
}

// IsLocal reports whether the connection bypasses SOAP.
func (c *Connection) IsLocal() bool { return c.local != nil }

// Health probes the registry's /registry/health rollup and returns its
// status verdict ("ok" or "degraded"); a transport failure is an error
// (the registry is unreachable, which is worse than degraded). Local
// connections compute the rollup in-process.
func (c *Connection) Health() (string, error) {
	if c.local != nil {
		return c.local.HealthStatus(), nil
	}
	resp, err := c.client.Get(c.baseURL + "/registry/health")
	if err != nil {
		return "", fmt.Errorf("jaxr: health probe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("jaxr: health probe: registry answered %s", resp.Status)
	}
	var doc struct {
		Status string
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("jaxr: health probe: decode: %w", err)
	}
	return doc.Status, nil
}

// UserID returns the authenticated user id ("" before Login).
func (c *Connection) UserID() string { return c.userID }

// post sends one protocol request to the remote registry.
func (c *Connection) post(req, resp interface{}) error {
	return soap.Post(c.client, c.baseURL+"/soap/registry", req, resp)
}

// Register runs the registration wizard, returning generated credentials.
func (c *Connection) Register(alias, password string, name rim.PersonName) (*auth.Credentials, string, error) {
	if c.local != nil {
		creds, user, err := c.local.Registrar.Register(alias, password, name)
		if err != nil {
			return nil, "", err
		}
		// PutDirect, as /soap/auth does: the User row must be in the log.
		if err := c.local.LCM.PutDirect(user); err != nil {
			return nil, "", err
		}
		return creds, user.ID, nil
	}
	var resp registry.RegisterResponse
	err := soap.Post(c.client, c.baseURL+"/soap/auth", &authReq{Register: &registry.RegisterRequest{
		Alias: alias, Password: password, FirstName: name.FirstName, LastName: name.LastName,
	}}, &resp)
	if err != nil {
		return nil, "", err
	}
	return &auth.Credentials{Alias: alias, CertPEM: []byte(resp.CertPEM), KeyPEM: []byte(resp.KeyPEM)}, resp.UserID, nil
}

// authReq is the auth endpoint union (mirrors the server's).
type authReq struct {
	XMLName   struct{}                   `xml:"AuthRequest"`
	Register  *registry.RegisterRequest  `xml:"RegisterRequest,omitempty"`
	Challenge *registry.ChallengeRequest `xml:"ChallengeRequest,omitempty"`
	Login     *registry.LoginRequest     `xml:"LoginRequest,omitempty"`
}

// Login authenticates with credentials via challenge/response and binds
// the session to this connection.
func (c *Connection) Login(creds *auth.Credentials) error {
	if c.local != nil {
		nonce, err := c.local.Registrar.Challenge(creds.Alias)
		if err != nil {
			return err
		}
		sig, err := creds.SignChallenge(nonce)
		if err != nil {
			return err
		}
		token, userID, err := c.local.Registrar.Login(creds.Alias, sig)
		if err != nil {
			return err
		}
		c.token, c.userID, c.alias = token, userID, creds.Alias
		return nil
	}
	var ch registry.ChallengeResponse
	if err := soap.Post(c.client, c.baseURL+"/soap/auth", &authReq{Challenge: &registry.ChallengeRequest{Alias: creds.Alias}}, &ch); err != nil {
		return err
	}
	nonce, err := base64.StdEncoding.DecodeString(ch.Nonce)
	if err != nil {
		return fmt.Errorf("jaxr: bad nonce: %w", err)
	}
	sig, err := creds.SignChallenge(nonce)
	if err != nil {
		return err
	}
	var login registry.LoginResponse
	err = soap.Post(c.client, c.baseURL+"/soap/auth", &authReq{Login: &registry.LoginRequest{
		Alias: creds.Alias, Signature: base64.StdEncoding.EncodeToString(sig),
	}}, &login)
	if err != nil {
		return err
	}
	c.token, c.userID, c.alias = login.Token, login.UserID, creds.Alias
	return nil
}

// requireAuth guards life-cycle calls.
func (c *Connection) requireAuth() error {
	if c.token == "" {
		return fmt.Errorf("jaxr: not logged in")
	}
	return nil
}

func (c *Connection) localCtx() lcm.Context {
	return c.local.ContextFor(c.userID)
}

// Submit publishes objects and returns their ids.
func (c *Connection) Submit(objs ...rim.Object) ([]string, error) {
	if err := c.requireAuth(); err != nil {
		return nil, err
	}
	if c.local != nil {
		if err := c.local.LCM.SubmitObjects(c.localCtx(), objs...); err != nil {
			return nil, err
		}
		ids := make([]string, len(objs))
		for i, o := range objs {
			ids[i] = o.Base().ID
		}
		return ids, nil
	}
	wires, err := toWires(objs)
	if err != nil {
		return nil, err
	}
	var resp registry.RegistryResponse
	err = c.post(&regReq{Submit: &registry.SubmitObjectsRequest{Session: c.token, Objects: wires}}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Update replaces objects and returns their ids.
func (c *Connection) Update(objs ...rim.Object) ([]string, error) {
	if err := c.requireAuth(); err != nil {
		return nil, err
	}
	if c.local != nil {
		if err := c.local.LCM.UpdateObjects(c.localCtx(), objs...); err != nil {
			return nil, err
		}
		ids := make([]string, len(objs))
		for i, o := range objs {
			ids[i] = o.Base().ID
		}
		return ids, nil
	}
	wires, err := toWires(objs)
	if err != nil {
		return nil, err
	}
	var resp registry.RegistryResponse
	err = c.post(&regReq{Update: &registry.UpdateObjectsRequest{Session: c.token, Objects: wires}}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

func toWires(objs []rim.Object) ([]registry.WireObject, error) {
	wires := make([]registry.WireObject, 0, len(objs))
	for _, o := range objs {
		w, err := registry.ToWire(o)
		if err != nil {
			return nil, err
		}
		wires = append(wires, *w)
	}
	return wires, nil
}

// regReq is the registry endpoint union (mirrors the server's).
type regReq struct {
	XMLName     struct{}                            `xml:"RegistryRequest"`
	Submit      *registry.SubmitObjectsRequest      `xml:"SubmitObjectsRequest,omitempty"`
	Update      *registry.UpdateObjectsRequest      `xml:"UpdateObjectsRequest,omitempty"`
	Approve     *registry.ApproveObjectsRequest     `xml:"ApproveObjectsRequest,omitempty"`
	Deprecate   *registry.DeprecateObjectsRequest   `xml:"DeprecateObjectsRequest,omitempty"`
	Undeprecate *registry.UndeprecateObjectsRequest `xml:"UndeprecateObjectsRequest,omitempty"`
	Remove      *registry.RemoveObjectsRequest      `xml:"RemoveObjectsRequest,omitempty"`
	GetObject   *registry.GetObjectRequest          `xml:"GetObjectRequest,omitempty"`
	Find        *registry.FindObjectsRequest        `xml:"FindObjectsRequest,omitempty"`
	Query       *registry.AdhocQueryWireRequest     `xml:"AdhocQueryRequest,omitempty"`
	Bindings    *registry.GetBindingsRequest        `xml:"GetBindingsRequest,omitempty"`
}

func (c *Connection) refOp(build func(ref registry.ObjectRefRequest) *regReq, ids []string, localOp func(lcm.Context, ...string) error) error {
	if err := c.requireAuth(); err != nil {
		return err
	}
	if c.local != nil {
		return localOp(c.localCtx(), ids...)
	}
	var resp registry.RegistryResponse
	return c.post(build(registry.ObjectRefRequest{Session: c.token, IDs: ids}), &resp)
}

// Approve approves objects.
func (c *Connection) Approve(ids ...string) error {
	return c.refOp(func(ref registry.ObjectRefRequest) *regReq {
		return &regReq{Approve: &registry.ApproveObjectsRequest{ObjectRefRequest: ref}}
	}, ids, func(ctx lcm.Context, ids ...string) error {
		return c.local.LCM.ApproveObjects(ctx, ids...)
	})
}

// Deprecate deprecates objects.
func (c *Connection) Deprecate(ids ...string) error {
	return c.refOp(func(ref registry.ObjectRefRequest) *regReq {
		return &regReq{Deprecate: &registry.DeprecateObjectsRequest{ObjectRefRequest: ref}}
	}, ids, func(ctx lcm.Context, ids ...string) error {
		return c.local.LCM.DeprecateObjects(ctx, ids...)
	})
}

// Undeprecate reverses deprecation.
func (c *Connection) Undeprecate(ids ...string) error {
	return c.refOp(func(ref registry.ObjectRefRequest) *regReq {
		return &regReq{Undeprecate: &registry.UndeprecateObjectsRequest{ObjectRefRequest: ref}}
	}, ids, func(ctx lcm.Context, ids ...string) error {
		return c.local.LCM.UndeprecateObjects(ctx, ids...)
	})
}

// Remove deletes objects (with server-side cascades).
func (c *Connection) Remove(ids ...string) error {
	return c.refOp(func(ref registry.ObjectRefRequest) *regReq {
		return &regReq{Remove: &registry.RemoveObjectsRequest{ObjectRefRequest: ref}}
	}, ids, func(ctx lcm.Context, ids ...string) error {
		return c.local.LCM.RemoveObjects(ctx, ids...)
	})
}

// Relocate retargets objects' home registry (the
// RelocateObjectsRequestProtocol).
func (c *Connection) Relocate(homeURL string, ids ...string) error {
	if err := c.requireAuth(); err != nil {
		return err
	}
	if c.local != nil {
		return c.local.LCM.RelocateObjects(c.localCtx(), homeURL, ids...)
	}
	var resp registry.RegistryResponse
	return c.post(&regReqRelocate{Relocate: &registry.RelocateObjectsRequest{
		Home:             homeURL,
		ObjectRefRequest: registry.ObjectRefRequest{Session: c.token, IDs: ids},
	}}, &resp)
}

// regReqRelocate carries the relocate protocol (kept separate from regReq
// to keep that struct's wire order stable).
type regReqRelocate struct {
	XMLName  struct{}                         `xml:"RegistryRequest"`
	Relocate *registry.RelocateObjectsRequest `xml:"RelocateObjectsRequest,omitempty"`
}

// GetObject retrieves one object by id.
func (c *Connection) GetObject(id string) (rim.Object, error) {
	if c.local != nil {
		return c.local.QM.GetRegistryObject(id)
	}
	var resp registry.GetObjectResponse
	if err := c.post(&regReq{GetObject: &registry.GetObjectRequest{ID: id}}, &resp); err != nil {
		return nil, err
	}
	return resp.Object.FromWire()
}

// Find lists objects of a kind by name LIKE pattern.
func (c *Connection) Find(kind, namePattern string) ([]rim.Object, error) {
	if c.local != nil {
		t, err := registry.KindType(kind)
		if err != nil {
			return nil, err
		}
		return c.local.QM.FindObjects(t, namePattern), nil
	}
	var resp registry.FindObjectsResponse
	if err := c.post(&regReq{Find: &registry.FindObjectsRequest{Kind: kind, NamePattern: namePattern}}, &resp); err != nil {
		return nil, err
	}
	objs := make([]rim.Object, 0, len(resp.Objects))
	for i := range resp.Objects {
		o, err := resp.Objects[i].FromWire()
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return objs, nil
}

// QueryResult is a syntax-independent ad-hoc query result.
type QueryResult struct {
	Columns []string
	Rows    [][]string // nulls rendered as ""
	Nulls   [][]bool
	Total   int
}

// AdhocQuery runs a SQL-92 query with string parameters.
func (c *Connection) AdhocQuery(query string, params map[string]string) (*QueryResult, error) {
	if c.local != nil {
		p := make(map[string]sqlq.Value, len(params))
		for k, v := range params {
			p[k] = v
		}
		resp, err := c.local.QM.SubmitAdhocQuery(qm.AdhocQueryRequest{Query: query, Params: p})
		if err != nil {
			return nil, err
		}
		out := &QueryResult{Columns: resp.Columns, Total: resp.TotalResultsCount}
		for _, row := range resp.Rows {
			cells := make([]string, len(row))
			nulls := make([]bool, len(row))
			for i, v := range row {
				if v == nil {
					nulls[i] = true
				} else {
					cells[i] = fmt.Sprintf("%v", v)
				}
			}
			out.Rows = append(out.Rows, cells)
			out.Nulls = append(out.Nulls, nulls)
		}
		return out, nil
	}
	wp := make([]registry.WireParam, 0, len(params))
	for k, v := range params {
		wp = append(wp, registry.WireParam{Name: k, Value: v})
	}
	var resp registry.AdhocQueryWireResponse
	if err := c.post(&regReq{Query: &registry.AdhocQueryWireRequest{Query: query, Params: wp}}, &resp); err != nil {
		return nil, err
	}
	out := &QueryResult{Columns: resp.Columns, Total: resp.TotalResultsCount}
	for _, row := range resp.Rows {
		cells := make([]string, len(row.Cells))
		nulls := make([]bool, len(row.Cells))
		for i, cell := range row.Cells {
			cells[i] = cell.Value
			nulls[i] = cell.Null
		}
		out.Rows = append(out.Rows, cells)
		out.Nulls = append(out.Nulls, nulls)
	}
	return out, nil
}

// BindingsDecision summarizes the balancer's decision for a discovery.
type BindingsDecision struct {
	Filtered   bool
	Eligible   int
	Unknown    int
	Ineligible int
	WindowOK   bool
}

// ServiceBindings resolves a service name to its arranged access URIs —
// the call MTC clients make before invoking (Fig. 3.3).
func (c *Connection) ServiceBindings(serviceName string) ([]string, BindingsDecision, error) {
	if c.local != nil {
		uris, dec, err := c.local.QM.GetServiceBindingsByName(serviceName)
		return uris, BindingsDecision{
			Filtered: dec.Filtered, Eligible: dec.Eligible(), Unknown: dec.Unknown(),
			Ineligible: dec.Ineligible(), WindowOK: dec.TimeWindowOK,
		}, err
	}
	var resp registry.GetBindingsResponse
	if err := c.post(&regReq{Bindings: &registry.GetBindingsRequest{ServiceName: serviceName}}, &resp); err != nil {
		return nil, BindingsDecision{}, err
	}
	return resp.URIs, BindingsDecision{
		Filtered: resp.Filtered, Eligible: resp.Eligible, Unknown: resp.Unknown,
		Ineligible: resp.Ineligible, WindowOK: resp.WindowOK,
	}, nil
}

// BusinessLifeCycleManager is the JAXR write facade.
type BusinessLifeCycleManager struct{ c *Connection }

// BusinessQueryManager is the JAXR read facade.
type BusinessQueryManager struct{ c *Connection }

// BusinessLifeCycleManager returns the write facade (never nil — Table
// 3.9, testGetBusinessLifeCycleManager).
func (c *Connection) BusinessLifeCycleManager() *BusinessLifeCycleManager {
	return &BusinessLifeCycleManager{c: c}
}

// BusinessQueryManager returns the read facade (never nil — Table 3.9,
// testGetBusinessQueryManager).
func (c *Connection) BusinessQueryManager() *BusinessQueryManager {
	return &BusinessQueryManager{c: c}
}

// SaveOrganizations publishes organizations.
func (m *BusinessLifeCycleManager) SaveOrganizations(orgs ...*rim.Organization) ([]string, error) {
	objs := make([]rim.Object, len(orgs))
	for i, o := range orgs {
		objs[i] = o
	}
	return m.c.Submit(objs...)
}

// SaveServices publishes services.
func (m *BusinessLifeCycleManager) SaveServices(svcs ...*rim.Service) ([]string, error) {
	objs := make([]rim.Object, len(svcs))
	for i, s := range svcs {
		objs[i] = s
	}
	return m.c.Submit(objs...)
}

// DeleteObjects removes objects by id.
func (m *BusinessLifeCycleManager) DeleteObjects(ids ...string) error { return m.c.Remove(ids...) }

// FindOrganizations searches organizations by name pattern.
func (m *BusinessQueryManager) FindOrganizations(namePattern string) ([]*rim.Organization, error) {
	objs, err := m.c.Find("Organization", namePattern)
	if err != nil {
		return nil, err
	}
	out := make([]*rim.Organization, 0, len(objs))
	for _, o := range objs {
		if org, ok := o.(*rim.Organization); ok {
			out = append(out, org)
		}
	}
	return out, nil
}

// FindServices searches services by name pattern.
func (m *BusinessQueryManager) FindServices(namePattern string) ([]*rim.Service, error) {
	objs, err := m.c.Find("Service", namePattern)
	if err != nil {
		return nil, err
	}
	out := make([]*rim.Service, 0, len(objs))
	for _, o := range objs {
		if svc, ok := o.(*rim.Service); ok {
			out = append(out, svc)
		}
	}
	return out, nil
}

// Balancer policies are configured server-side; this accessor surfaces the
// effective policy in localCall mode for diagnostics.
func (c *Connection) LocalPolicy() (core.Policy, bool) {
	if c.local == nil {
		return 0, false
	}
	return c.local.Balancer.Policy, true
}
