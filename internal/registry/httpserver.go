package registry

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/lcm"
	"repro/internal/nodestate"
	"repro/internal/qm"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/router"
	"repro/internal/soap"
	"repro/internal/sqlq"
	"repro/internal/store"
)

// Handler builds the registry's HTTP surface:
//
//	POST /soap/registry   — ebRS life-cycle + query protocols over SOAP
//	POST /soap/auth       — registration / challenge / login handshake
//	GET  /registry/...    — the mandatory HTTP (REST) binding, which per
//	                        thesis §2.2.3 "only supports search queries"
//	                        (QueryManager only, no publishing)
//
// plus the operator surface (health, metrics, traces, flight, bundle, UI,
// nodestate; replication on a leader, pprof when opted in). Every route is
// a row of serviceRoutes or operatorRoutes, and buildHandler registers
// nothing else.
//
// The routes live in a frozen-mode static router: every pattern is
// registered here, then the table is frozen before the first request, so
// dispatch is a single map read with no locking. Handler is built once
// and cached; repeated calls return the same frozen edge.
func (r *Registry) Handler() http.Handler {
	r.handlerOnce.Do(func() { r.handler = r.buildHandler() })
	return r.handler
}

// serviceRoute is one row of the service table: a protocol route of the
// registry, SOAP (the LCM admission class, shed with a SOAP fault) or REST
// (the discovery class, shed with a JSON body).
type serviceRoute struct {
	path    string
	route   flight.Route
	isSOAP  bool
	handler http.Handler
}

// serviceRoutes is the service table.
func (r *Registry) serviceRoutes() []serviceRoute {
	return []serviceRoute{
		{"/soap/registry", flight.RouteSOAPRegistry, true, soap.EndpointCtx(r.handleRegistrySOAP, scanRegistryRequest)},
		{"/soap/auth", flight.RouteSOAPAuth, true, soap.Endpoint(r.handleAuthSOAP)},
		{"/registry/object", flight.RouteObject, false, http.HandlerFunc(r.handleGetObject)},
		{"/registry/find", flight.RouteFind, false, http.HandlerFunc(r.handleFind)},
		{"/registry/bindings", flight.RouteBindings, false, &bindingsEdge{reg: r}},
		{"/registry/query", flight.RouteQuery, false, http.HandlerFunc(r.handleQuery)},
		{"/registry/content", flight.RouteContent, false, http.HandlerFunc(r.handleContent)},
	}
}

// operatorRoute is one row of the operator table. A path ending in "/"
// serves the subtree below it.
type operatorRoute struct {
	path    string
	handler http.HandlerFunc
}

// operatorRoutes is the operator table. Its routes bypass admission and
// the flight recorder: they are how an operator sees into a node, and how
// a follower stays fed, precisely while the edge is shedding, so a
// saturated service class must never lock them out.
func (r *Registry) operatorRoutes() []operatorRoute {
	routes := []operatorRoute{
		{"/registry/nodestate", r.handleNodeState},
		{"/registry/health", r.handleHealth},
		{"/registry/metrics", r.handleMetrics},
		{"/registry/traces", r.handleTraces},
		{"/registry/flight", r.handleFlight},
		{"/registry/debug/bundle", r.handleBundle},
		{"/ui", r.handleUI},
	}
	if r.ReplLeader != nil {
		routes = append(routes,
			operatorRoute{repl.PathWAL, r.ReplLeader.ServeWAL},
			operatorRoute{repl.PathCheckpoint, r.ReplLeader.ServeCheckpoint})
	}
	// net/http/pprof's own DefaultServeMux registration is bypassed: the
	// profiling endpoints exist only when Config.Pprof opted in.
	if r.pprof {
		routes = append(routes,
			operatorRoute{"/debug/pprof/", pprof.Index},
			operatorRoute{"/debug/pprof/cmdline", pprof.Cmdline},
			operatorRoute{"/debug/pprof/profile", pprof.Profile},
			operatorRoute{"/debug/pprof/symbol", pprof.Symbol},
			operatorRoute{"/debug/pprof/trace", pprof.Trace})
	}
	return routes
}

func (r *Registry) buildHandler() http.Handler {
	mux := router.New(router.Config{})
	for _, s := range r.serviceRoutes() {
		class, format := admit.ClassDiscovery, admit.RejectJSON
		if s.isSOAP {
			class, format = admit.ClassLCM, admit.RejectSOAP
		}
		// The flight recorder sits outside admission, so a shed request
		// leaves its record too.
		mux.Handle(s.path, r.flightWrap(s.route, r.Admission.Wrap(class, format, s.handler)))
	}
	for _, o := range r.operatorRoutes() {
		if strings.HasSuffix(o.path, "/") {
			mux.HandlePrefix(o.path, o.handler)
		} else {
			mux.Handle(o.path, o.handler)
		}
	}
	mux.Freeze()
	r.edge.Store(mux)
	return mux
}

// HardenedServer builds an http.Server with conservative edge limits so
// slow or malicious clients cannot hold connections open for free:
// bounded header read, bounded whole-request read, bounded keep-alive
// idle, and a small header cap (request bodies are bounded separately, by
// soap.MaxBodyBytes). WriteTimeout stays unset deliberately —
// /debug/pprof/profile streams for its whole sampling window and a write
// cap would sever it.
func HardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// soapRequest is the union envelope body for /soap/registry: exactly one
// member protocol element is set per request.
type soapRequest struct {
	XMLName     struct{}                   `xml:"RegistryRequest"`
	Submit      *SubmitObjectsRequest      `xml:"SubmitObjectsRequest"`
	Update      *UpdateObjectsRequest      `xml:"UpdateObjectsRequest"`
	Approve     *ApproveObjectsRequest     `xml:"ApproveObjectsRequest"`
	Deprecate   *DeprecateObjectsRequest   `xml:"DeprecateObjectsRequest"`
	Undeprecate *UndeprecateObjectsRequest `xml:"UndeprecateObjectsRequest"`
	Remove      *RemoveObjectsRequest      `xml:"RemoveObjectsRequest"`
	Relocate    *RelocateObjectsRequest    `xml:"RelocateObjectsRequest"`
	GetObject   *GetObjectRequest          `xml:"GetObjectRequest"`
	Find        *FindObjectsRequest        `xml:"FindObjectsRequest"`
	Query       *AdhocQueryWireRequest     `xml:"AdhocQueryRequest"`
	Bindings    *GetBindingsRequest        `xml:"GetBindingsRequest"`
	Subscribe   *SubscribeRequest          `xml:"SubscribeRequest"`
	Unsubscribe *UnsubscribeRequest        `xml:"UnsubscribeRequest"`
}

func (r *Registry) handleRegistrySOAP(ctx context.Context, req *soapRequest) (interface{}, error) {
	// The per-class deadline runs from arrival, so a request that spent
	// its budget in the admission queue fails fast here with a typed fault
	// before any work (or write) starts.
	if err := ctx.Err(); err != nil {
		return nil, &soap.Fault{Code: "Server.Timeout", String: "request deadline exceeded before dispatch", Detail: err.Error()}
	}
	// A follower never applies writes locally — replication is the only
	// mutation path — so every write protocol redirects to the leader.
	// Reads (GetObject/Find/Query/Bindings) keep serving from local state.
	if r.replFollow != "" && isWriteRequest(req) {
		return nil, r.notLeader("/soap/registry")
	}
	switch {
	case req.Submit != nil:
		return r.doSubmit(ctx, req.Submit)
	case req.Update != nil:
		return r.doUpdate(ctx, req.Update)
	case req.Approve != nil:
		sess, err := r.sessionOrFault(req.Approve.Session)
		if err != nil {
			return nil, err
		}
		return ack(req.Approve.IDs, r.LCM.ApproveObjects(sess, req.Approve.IDs...))
	case req.Deprecate != nil:
		sess, err := r.sessionOrFault(req.Deprecate.Session)
		if err != nil {
			return nil, err
		}
		return ack(req.Deprecate.IDs, r.LCM.DeprecateObjects(sess, req.Deprecate.IDs...))
	case req.Undeprecate != nil:
		sess, err := r.sessionOrFault(req.Undeprecate.Session)
		if err != nil {
			return nil, err
		}
		return ack(req.Undeprecate.IDs, r.LCM.UndeprecateObjects(sess, req.Undeprecate.IDs...))
	case req.Remove != nil:
		sess, err := r.sessionOrFault(req.Remove.Session)
		if err != nil {
			return nil, err
		}
		return ack(req.Remove.IDs, r.LCM.RemoveObjects(sess, req.Remove.IDs...))
	case req.Relocate != nil:
		sess, err := r.sessionOrFault(req.Relocate.Session)
		if err != nil {
			return nil, err
		}
		return ack(req.Relocate.IDs, r.LCM.RelocateObjects(sess, req.Relocate.Home, req.Relocate.IDs...))
	case req.GetObject != nil:
		return r.doGetObject(req.GetObject)
	case req.Find != nil:
		return r.doFind(req.Find)
	case req.Query != nil:
		return r.doQuery(req.Query)
	case req.Bindings != nil:
		return r.doBindings(ctx, req.Bindings)
	case req.Subscribe != nil:
		return r.doSubscribe(req.Subscribe)
	case req.Unsubscribe != nil:
		return r.doUnsubscribe(req.Unsubscribe)
	default:
		return nil, soap.ClientFault("empty RegistryRequest")
	}
}

// isWriteRequest reports whether a union envelope carries a mutating
// protocol element (subscriptions included: their state is node-local
// in-memory and must live where the event bus fires — the leader).
func isWriteRequest(req *soapRequest) bool {
	return req.Submit != nil || req.Update != nil || req.Approve != nil ||
		req.Deprecate != nil || req.Undeprecate != nil || req.Remove != nil ||
		req.Relocate != nil || req.Subscribe != nil || req.Unsubscribe != nil
}

// sessionOrFault requires an authenticated session for LCM operations
// (§2.2.3: "unauthenticated clients cannot access the LifeCycleManager").
func (r *Registry) sessionOrFault(token string) (lcm.Context, error) {
	if token == "" {
		return lcm.Guest, soap.ClientFault("authentication required for life-cycle operations")
	}
	ctx, err := r.SessionContext(token)
	if err != nil {
		return lcm.Guest, soap.ClientFault("invalid session: %v", err)
	}
	return ctx, nil
}

// ack answers a life-cycle request that err does not fail with its
// RegistryResponse, in the bytes soap.Marshal would write for it.
func ack(ids []string, err error) (interface{}, error) {
	if err != nil {
		return nil, err
	}
	n := ackSize
	for _, id := range ids {
		n += len(`<ObjectRef></ObjectRef>`) + len(id)
	}
	return soap.Raw(appendRegistryResponse(make([]byte, 0, n), "Success", ids)), nil
}

// ackSize is the length of a RegistryResponse envelope with no ObjectRef.
var ackSize = len(appendRegistryResponse(nil, "Success", nil))

func (r *Registry) doSubmit(ctx context.Context, req *SubmitObjectsRequest) (interface{}, error) {
	sess, err := r.sessionOrFault(req.Session)
	if err != nil {
		return nil, err
	}
	objs, ids, err := decodeAll(req.Objects)
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	return ack(ids, r.LCM.SubmitObjectsCtx(ctx, sess, objs...))
}

func (r *Registry) doUpdate(ctx context.Context, req *UpdateObjectsRequest) (interface{}, error) {
	sess, err := r.sessionOrFault(req.Session)
	if err != nil {
		return nil, err
	}
	objs, ids, err := decodeAll(req.Objects)
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	return ack(ids, r.LCM.UpdateObjectsCtx(ctx, sess, objs...))
}

func decodeAll(wires []WireObject) ([]rim.Object, []string, error) {
	objs := make([]rim.Object, 0, len(wires))
	ids := make([]string, 0, len(wires))
	for i := range wires {
		o, err := wires[i].FromWire()
		if err != nil {
			return nil, nil, err
		}
		objs = append(objs, o)
		ids = append(ids, o.Base().ID)
	}
	return objs, ids, nil
}

func (r *Registry) doGetObject(req *GetObjectRequest) (interface{}, error) {
	o, err := r.QM.GetRegistryObject(req.ID)
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	w, err := ToWire(o)
	if err != nil {
		return nil, err
	}
	return &GetObjectResponse{Object: *w}, nil
}

func (r *Registry) doFind(req *FindObjectsRequest) (interface{}, error) {
	t, err := KindType(req.Kind)
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	resp := &FindObjectsResponse{}
	for _, o := range r.QM.FindObjects(t, req.NamePattern) {
		w, err := ToWire(o)
		if err != nil {
			continue // non-wireable kinds are skipped in listings
		}
		resp.Objects = append(resp.Objects, *w)
	}
	return resp, nil
}

// objectKind names an object type the way Find requests, subscriptions and
// the web UI do.
type objectKind struct {
	Name string
	Type rim.ObjectType
}

// kinds is the one table of object kinds, in the order the UI lists them.
var kinds = []objectKind{
	{"Organization", rim.TypeOrganization},
	{"Service", rim.TypeService},
	{"Association", rim.TypeAssociation},
	{"User", rim.TypeUser},
	{"ClassificationScheme", rim.TypeClassificationScheme},
	{"ClassificationNode", rim.TypeClassificationNode},
	{"RegistryPackage", rim.TypeRegistryPackage},
	{"ExternalLink", rim.TypeExternalLink},
	{"AdhocQuery", rim.TypeAdhocQuery},
}

// KindType resolves an object kind name (Organization, Service, ...) to its
// object type, the same way for every protocol and for localCall clients.
func KindType(kind string) (rim.ObjectType, error) {
	for _, k := range kinds {
		if k.Name == kind {
			return k.Type, nil
		}
	}
	return "", fmt.Errorf("registry: unknown object kind %q", kind)
}

func (r *Registry) doQuery(req *AdhocQueryWireRequest) (interface{}, error) {
	params := make(map[string]sqlq.Value, len(req.Params))
	for _, p := range req.Params {
		if p.Type == "number" {
			n, err := strconv.ParseFloat(p.Value, 64)
			if err != nil {
				return nil, soap.ClientFault("bad numeric parameter %s=%q", p.Name, p.Value)
			}
			params[p.Name] = n
		} else {
			params[p.Name] = p.Value
		}
	}
	var resp *qm.AdhocQueryResponse
	var err error
	if req.StoredQueryName != "" {
		resp, err = r.QM.InvokeStoredQuery(req.StoredQueryName, params, req.StartIndex, req.MaxResults)
	} else {
		resp, err = r.QM.SubmitAdhocQuery(qm.AdhocQueryRequest{
			Syntax: req.Syntax, Query: req.Query, Params: params,
			StartIndex: req.StartIndex, MaxResults: req.MaxResults,
		})
	}
	if err != nil {
		return nil, soap.ClientFault("%v", err)
	}
	wire := &AdhocQueryWireResponse{
		StartIndex:        resp.StartIndex,
		TotalResultsCount: resp.TotalResultsCount,
		Columns:           resp.Columns,
	}
	for _, row := range resp.Rows {
		wr := WireRow{Cells: make([]WireCell, len(row))}
		for i, v := range row {
			if v == nil {
				wr.Cells[i] = WireCell{Null: true}
			} else {
				wr.Cells[i] = WireCell{Value: fmt.Sprintf("%v", v)}
			}
		}
		wire.Rows = append(wire.Rows, wr)
	}
	return wire, nil
}

// doBindings is the SOAP codec of discover: it picks the key (a service id
// or name), asks the cache and then the balancer, and maps the outcome onto a
// preserialized envelope or a typed fault.
func (r *Registry) doBindings(ctx context.Context, req *GetBindingsRequest) (interface{}, error) {
	key, byID := req.ServiceName, req.ServiceID != ""
	if byID {
		key = req.ServiceID
	}
	if key == "" {
		return nil, soap.ClientFault("GetBindingsRequest needs serviceId or serviceName")
	}
	start, fw := r.Clock.Now(), flight.FrameFrom(ctx)
	ent, err := r.discover(ctx, fw, byID, key, start, encSOAP, true)
	if ent == nil {
		ent, err = r.discover(ctx, fw, byID, key, start, encSOAP, false)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return nil, &soap.Fault{Code: "Server.Timeout", String: "discovery deadline exceeded", Detail: err.Error()}
	case err != nil:
		return nil, soap.ClientFault("%v", err)
	}
	return soap.Raw(ent.SOAP), nil
}

// authRequest is the union body for /soap/auth.
type authRequest struct {
	XMLName   struct{}          `xml:"AuthRequest"`
	Register  *RegisterRequest  `xml:"RegisterRequest"`
	Challenge *ChallengeRequest `xml:"ChallengeRequest"`
	Login     *LoginRequest     `xml:"LoginRequest"`
}

func (r *Registry) handleAuthSOAP(req *authRequest) (interface{}, error) {
	// Registrar state (keystore, sessions) is node-local and the Register
	// path writes a User row; on a follower the whole auth protocol lives
	// at the leader, whose tokens the leader then honours for writes.
	if r.replFollow != "" {
		return nil, r.notLeader("/soap/auth")
	}
	switch {
	case req.Register != nil:
		creds, user, err := r.Registrar.Register(req.Register.Alias, req.Register.Password,
			rim.PersonName{FirstName: req.Register.FirstName, LastName: req.Register.LastName})
		if err != nil {
			return nil, soap.ClientFault("%v", err)
		}
		// PutDirect, not Store.Put: the User row must be in the WAL or a
		// crash would orphan the registered account.
		if err := r.LCM.PutDirect(user); err != nil {
			return nil, err
		}
		return &RegisterResponse{UserID: user.ID, CertPEM: string(creds.CertPEM), KeyPEM: string(creds.KeyPEM)}, nil
	case req.Challenge != nil:
		nonce, err := r.Registrar.Challenge(req.Challenge.Alias)
		if err != nil {
			return nil, soap.ClientFault("%v", err)
		}
		return &ChallengeResponse{Nonce: base64.StdEncoding.EncodeToString(nonce)}, nil
	case req.Login != nil:
		sig, err := base64.StdEncoding.DecodeString(req.Login.Signature)
		if err != nil {
			return nil, soap.ClientFault("bad signature encoding: %v", err)
		}
		token, userID, err := r.Registrar.Login(req.Login.Alias, sig)
		if err != nil {
			return nil, soap.ClientFault("%v", err)
		}
		return &LoginResponse{Token: token, UserID: userID}, nil
	default:
		return nil, soap.ClientFault("empty AuthRequest")
	}
}

// --- HTTP GET (REST) binding: QueryManager only --------------------------

// jsonCT is the shared Content-Type header slice: assigning it by key
// into an existing header map allocates nothing, unlike Header().Set.
var jsonCT = []string{"application/json"}

// writeJSON renders v into a pooled buffer and writes the response with
// a single Write — always-hot endpoints like /registry/health used to
// pay a fresh encoder writing straight to the connection per request.
func writeJSON(w http.ResponseWriter, v interface{}) {
	buf := respcache.GetBuffer()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		respcache.PutBuffer(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonCT
	w.Write(buf.Bytes())
	respcache.PutBuffer(buf)
}

func (r *Registry) handleGetObject(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("id")
	o, err := r.QM.GetRegistryObject(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	wire, err := ToWire(o)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, wire)
}

func (r *Registry) handleFind(w http.ResponseWriter, req *http.Request) {
	kind := req.URL.Query().Get("kind")
	pattern := req.URL.Query().Get("name")
	t, err := KindType(kind)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var out []*WireObject
	for _, o := range r.QM.FindObjects(t, pattern) {
		if wire, err := ToWire(o); err == nil {
			out = append(out, wire)
		}
	}
	writeJSON(w, out)
}

// bindingsEdge serves GET /registry/bindings, the REST codec of discover.
// It implements admit.FastHandler: an admitted request whose answer is
// already preserialized is written straight from the cache — no context
// derive, no marshalling, zero allocations — while misses fall through to
// ServeHTTP, which runs under the deadline budget.
type bindingsEdge struct {
	reg *Registry
}

// FastServe writes a cached response if discover's probe finds one. It
// must not block and must not allocate on a hit.
func (e *bindingsEdge) FastServe(w http.ResponseWriter, req *http.Request) bool {
	name, ok := serviceParam(req.URL.RawQuery)
	if !ok {
		return false
	}
	r := e.reg
	ent, _ := r.discover(req.Context(), flight.From(w), false, name, r.Clock.Now(), encJSON, true)
	if ent == nil {
		return false
	}
	writeBindingsJSON(w, ent)
	return true
}

// ServeHTTP is the miss path: parse the query the slow way, have discover
// run the balancer, and answer from the bytes it rendered.
func (e *bindingsEdge) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r := e.reg
	// Without an admission controller nothing calls FastServe for us.
	if r.Admission == nil && e.FastServe(w, req) {
		return
	}
	name := req.URL.Query().Get("service")
	if name == "" {
		http.Error(w, "missing service parameter", http.StatusBadRequest)
		return
	}
	ent, err := r.discover(req.Context(), flight.From(w), false, name, r.Clock.Now(), encJSON, false)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case err != nil:
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		writeBindingsJSON(w, ent)
	}
}

// writeBindingsJSON answers a REST discovery from preserialized bytes.
func writeBindingsJSON(w http.ResponseWriter, ent *respcache.Entry) {
	h := w.Header()
	h["Content-Type"] = jsonCT
	w.Write(ent.JSON)
}

// encoding names one of the two wire forms of a discovery answer.
type encoding uint8

const (
	encJSON encoding = iota // GET /registry/bindings
	encSOAP                 // GetBindingsRequest on /soap/registry
	numEncodings
)

func (e encoding) String() string {
	if e == encSOAP {
		return "soap"
	}
	return "json"
}

// discover is the one discovery sequence behind both codecs; the REST and
// SOAP handlers only parse the request and write the bytes of the entry it
// returns. It resolves key, a service id when byID is set and a name
// otherwise, to the service's discovery entry in the store, where the
// service's one answer is kept. A request is answered in up to two calls,
// because on the REST route the admission middleware stands between them.
// The probe (probe set) only consults the answer on the entry: it never
// blocks and, when the answer already carries the encoding enc, never
// allocates, which is what lets it run before a deadline context exists; it
// returns a nil entry on a miss. The miss call (probe clear) resolves the
// key again, runs the balancer on that view under ctx, renders the one
// encoding the codec asked for and puts the answer on that view's entry. A
// hit on an answer that was rendered for the other codec reuses its
// decision and renders enc once, into a sibling. Either call reads the
// validity tuple first and accounts the answer it gives: discovery
// counters, balance assignment, flight annotation.
func (r *Registry) discover(ctx context.Context, fw *flight.Writer, byID bool, key string, start time.Time, enc encoding, probe bool) (*respcache.Entry, error) {
	// The tuple is read before the decision is computed, the epoch first:
	// a tier transition landing mid-flight leaves the answer permanently
	// invalid rather than ever stale, and one that landed before the epoch
	// was read is in the tier read after it. A write landing mid-flight
	// replaces the entry the answer is put on.
	var epoch uint64
	if !probe {
		epoch = r.RespCache.Epoch()
	}
	gen, taken := r.Balancer.SnapshotMeta(start)
	age := snapshotAge(start, taken)
	tier := r.edgeTier()
	if probe {
		view, _ := r.Store.LookupService(key, byID)
		ent := r.RespCache.Get(view, gen, tier, start)
		if ent != nil {
			if encoded(ent, enc) == nil {
				ent = r.renderSibling(view, ent, enc)
			}
			r.account(fw, &ent.Decision, age, start, true)
		}
		return ent, nil
	}
	view, err := r.QM.ServiceViewCtx(ctx, key, byID)
	if err != nil {
		r.discovery.errors.Inc()
		return nil, err
	}
	old, _ := view.Answer().(*respcache.Entry)
	uris, dec, err := r.QM.ArrangeCtx(ctx, view)
	if err != nil {
		r.discovery.errors.Inc()
		return nil, err
	}
	r.account(fw, &dec, age, start, false)
	ent := &respcache.Entry{
		Epoch: epoch, Gen: gen, Tier: tier, Expires: respExpiry(&dec, start),
		URIs: uris, Decision: dec,
	}
	r.renderBindings(ent, enc)
	respcache.Put(view, old, ent)
	return ent, nil
}

// encoded returns the bytes ent carries for enc, nil when that encoding
// has not been rendered.
func encoded(ent *respcache.Entry, enc encoding) []byte {
	if enc == encSOAP {
		return ent.SOAP
	}
	return ent.JSON
}

// renderSibling answers a hit on an answer that lacks the encoding enc:
// answers are immutable once put (the hit path reads them with no lock),
// so the missing bytes go into a copy that replaces the original on the
// view's entry under the original's validity stamp, valid exactly as long
// as the original would have been.
func (r *Registry) renderSibling(view store.DiscoveryView, of *respcache.Entry, enc encoding) *respcache.Entry {
	sib := *of
	r.renderBindings(&sib, enc)
	respcache.Put(view, of, &sib)
	return &sib
}

// renderBindings preserializes the encoding enc of the answer ent was
// built from. It is the only place either encoding of a bindings answer is
// produced: the JSON through appendBindingsJSON, whose bytes are those of
// writeJSON's encoder configuration, the SOAP envelope through
// appendBindingsEnvelope, whose bytes are soap.Marshal's.
func (r *Registry) renderBindings(ent *respcache.Entry, enc encoding) {
	dec := &ent.Decision
	ans := GetBindingsResponse{
		URIs:       ent.URIs,
		Filtered:   dec.Filtered,
		Eligible:   dec.Eligible(),
		Unknown:    dec.Unknown(),
		Ineligible: dec.Ineligible(),
		WindowOK:   dec.TimeWindowOK,
	}
	buf := respcache.GetBuffer()
	if enc == encSOAP {
		buf.Write(appendBindingsEnvelope(buf.AvailableBuffer(), &ans))
		ent.SOAP = append([]byte(nil), buf.Bytes()...)
	} else {
		buf.Write(appendBindingsJSON(buf.AvailableBuffer(), &ans))
		ent.JSON = append([]byte(nil), buf.Bytes()...)
	}
	respcache.PutBuffer(buf)
	r.renders[enc].Inc()
}

// account folds one discovery answer into the counters and, when the
// route is flight-wrapped, into the request's record.
func (r *Registry) account(fw *flight.Writer, dec *core.Decision, age time.Duration, start time.Time, hit bool) {
	host := dec.ServedHost()
	r.discovery.observe(dec, host, age, r.Clock.Now().Sub(start).Seconds())
	if fw != nil {
		fw.Rec.CacheHit = hit
		noteDecision(&fw.Rec, dec)
		fw.Rec.SnapshotAge = age
		fw.Rec.Host = host
	}
}

// snapshotAge converts a snapshot's taken instant into the decision's
// staleness, clamping at zero (a snapshot with no taken instant, or one
// taken after now, reads as fresh).
func snapshotAge(now, taken time.Time) time.Duration {
	if taken.IsZero() {
		return 0
	}
	if d := now.Sub(taken); d > 0 {
		return d
	}
	return 0
}

// serviceParam extracts the service query parameter without allocating:
// a plain substring of RawQuery is returned when the value needs no
// decoding. Percent escapes, '+', and semicolon-separated pairs (which
// url.ParseQuery rejects outright) bail to the slow path so the fast
// path can never disagree with req.URL.Query().
func serviceParam(raw string) (string, bool) {
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if strings.IndexByte(pair, ';') >= 0 ||
			strings.IndexByte(pair, '%') >= 0 ||
			strings.IndexByte(pair, '+') >= 0 {
			return "", false
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		if key == "service" {
			if val == "" {
				return "", false
			}
			return val, true
		}
	}
	return "", false
}

// edgeTier reads the brownout tier for response-cache keying; a registry
// without admission control is permanently at tier 0.
func (r *Registry) edgeTier() uint32 {
	if r.Admission == nil {
		return 0
	}
	return uint32(r.Admission.Tier())
}

// respExpiry computes the first instant the cached decision could
// change for time-based reasons: the constraint window's next boundary,
// or the decision's freshness horizon (past it a row's verdict flips to
// unknown without any write or snapshot movement). Zero means the answer
// is time-independent.
func respExpiry(dec *core.Decision, now time.Time) time.Time {
	var exp time.Time
	if dec.Constraint != nil {
		exp = dec.Constraint.NextWindowChange(now)
	}
	if f := dec.FreshUntil; !f.IsZero() && (exp.IsZero() || f.Before(exp)) {
		exp = f
	}
	return exp
}

func (r *Registry) handleQuery(w http.ResponseWriter, req *http.Request) {
	params := req.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	start, ok := intParam(w, params, "start", 0, 0)
	if !ok {
		return
	}
	max, ok := intParam(w, params, "max", 0, 0) // 0: unbounded
	if !ok {
		return
	}
	resp, err := r.QM.SubmitAdhocQuery(qm.AdhocQueryRequest{
		Syntax: params.Get("syntax"), Query: q, StartIndex: start, MaxResults: max,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (r *Registry) handleNodeState(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, r.Store.NodeState().Snapshot().Rows())
}

// handleHealth reports the collector's per-host health and breaker state
// (the machine-readable twin of the web UI's collector-health table) plus
// a per-component rollup: collector, WAL, admission, edge cache, and
// balance each report ok/degraded/disabled, and Status carries the worst
// of them.
func (r *Registry) handleHealth(w http.ResponseWriter, req *http.Request) {
	stats := r.Collector.FaultStats()
	hosts := r.Collector.HealthSnapshot()
	comps := r.componentHealth(stats, hosts)
	status := "ok"
	for _, c := range comps {
		if c.Status == "degraded" {
			status = "degraded"
			break
		}
	}
	writeJSON(w, struct {
		Status     string
		Stats      nodestate.Stats
		Hosts      []nodestate.HostHealthReport
		Components map[string]componentHealth
	}{Status: status, Stats: stats, Hosts: hosts, Components: comps})
}

// HealthStatus computes the same rollup verdict /registry/health reports
// — "ok" or "degraded" — for in-process callers (federated discovery's
// per-registry health column).
func (r *Registry) HealthStatus() string {
	for _, c := range r.componentHealth(r.Collector.FaultStats(), r.Collector.HealthSnapshot()) {
		if c.Status == "degraded" {
			return "degraded"
		}
	}
	return "ok"
}

// handleContent serves repository artifacts by ExtrinsicObject id — the
// "any metadata or artifact ... addressable via an HTTP URL" row of
// Table 1.1.
func (r *Registry) handleContent(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("id")
	eo, content, err := r.GetRepositoryItem(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	ct := eo.MimeType
	if ct == "" {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(content)
}
