// Package router is the registry's frozen-mode static router. Routes are
// registered once at boot and then frozen into an immutable perfect-match
// table: dispatch is one map read (Go map lookups allocate nothing) plus a
// short longest-prefix scan for the few subtree routes (/debug/pprof/),
// with no per-request pattern matching, no locks, and no allocation.
//
// Freezing also hardens the edge: requests whose path exceeds
// MaxPathLength answer 414 and paths nested deeper than MaxDepth answer
// 400, both from preserialized bodies, before any handler runs. Unknown
// paths get a preserialized 404. The three reject classes are counted so
// the serving edge's exposition can report them.
//
// The router deliberately does not reproduce net/http.ServeMux's path
// cleaning and trailing-slash redirects: the registry's surface is a
// fixed set of canonical paths, and a non-canonical request is simply not
// one of them.
package router

import (
	"errors"
	"net/http"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// errNotFrozen is predeclared so the hot-path nil check panics without
// boxing a string into the interface argument on every build of the
// function's stack frame.
var errNotFrozen = errors.New("router: ServeHTTP before Freeze")

// Defaults for the request limits when Config leaves them zero. The
// registry's deepest route (/debug/pprof/cmdline) has three segments and
// its longest practical query-bearing path is far under a kilobyte.
const (
	DefaultMaxPathLength = 1024
	DefaultMaxDepth      = 8
)

// Config tunes a Router's request limits.
type Config struct {
	// MaxPathLength caps the request path in bytes; longer paths answer
	// 414 URI Too Long. 0 means DefaultMaxPathLength.
	MaxPathLength int
	// MaxDepth caps the number of path segments; deeper paths answer 400.
	// 0 means DefaultMaxDepth.
	MaxDepth int
}

// prefixRoute is one subtree registration, matched after the static table.
type prefixRoute struct {
	prefix  string
	handler http.Handler
}

// Router dispatches requests against a frozen static-path table. Register
// every route from the boot goroutine, call Freeze, then serve; Handle
// after Freeze and ServeHTTP before it both panic. The frozen state is
// immutable, so concurrent ServeHTTP calls need no synchronisation.
type Router struct {
	maxPath  int
	maxDepth int
	frozen   bool
	static   map[string]http.Handler
	prefixes []prefixRoute

	// Reject counters, readable at any time (e.g. by a metrics scrape).
	TooLong  metrics.Counter
	TooDeep  metrics.Counter
	NotFound metrics.Counter

	// Preserialized reject responses: the reject paths must not allocate.
	textContentType []string
	noSniff         []string
	tooLongBody     []byte
	tooDeepBody     []byte
	notFoundBody    []byte
}

// New creates an unfrozen router with the given limits.
func New(cfg Config) *Router {
	if cfg.MaxPathLength <= 0 {
		cfg.MaxPathLength = DefaultMaxPathLength
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	return &Router{
		maxPath:         cfg.MaxPathLength,
		maxDepth:        cfg.MaxDepth,
		static:          make(map[string]http.Handler),
		textContentType: []string{"text/plain; charset=utf-8"},
		noSniff:         []string{"nosniff"},
		tooLongBody:     []byte("request path exceeds the configured limit\n"),
		tooDeepBody:     []byte("request path nested deeper than the configured limit\n"),
		notFoundBody:    []byte("404 page not found\n"),
	}
}

// Handle registers an exact-match route. The pattern must start with "/";
// duplicate and post-Freeze registrations panic — route wiring bugs are
// boot-time bugs.
func (r *Router) Handle(pattern string, h http.Handler) {
	r.check(pattern, h)
	if _, dup := r.static[pattern]; dup {
		panic("router: duplicate route " + pattern)
	}
	r.static[pattern] = h
}

// HandleFunc registers an exact-match route for a handler function.
func (r *Router) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	r.Handle(pattern, http.HandlerFunc(h))
}

// HandlePrefix registers a subtree route: every path starting with prefix
// that has no exact-match entry dispatches to h. Longest prefix wins.
func (r *Router) HandlePrefix(prefix string, h http.Handler) {
	r.check(prefix, h)
	for _, p := range r.prefixes {
		if p.prefix == prefix {
			panic("router: duplicate prefix route " + prefix)
		}
	}
	r.prefixes = append(r.prefixes, prefixRoute{prefix: prefix, handler: h})
}

// HandlePrefixFunc registers a subtree route for a handler function.
func (r *Router) HandlePrefixFunc(prefix string, h func(http.ResponseWriter, *http.Request)) {
	r.HandlePrefix(prefix, http.HandlerFunc(h))
}

func (r *Router) check(pattern string, h http.Handler) {
	if r.frozen {
		panic("router: Handle after Freeze (routes are fixed at boot)")
	}
	if pattern == "" || pattern[0] != '/' {
		panic("router: pattern must start with /: " + pattern)
	}
	if h == nil {
		panic("router: nil handler for " + pattern)
	}
}

// Freeze makes the route table immutable and the router servable. Called
// once, after the last registration, before the first request.
func (r *Router) Freeze() {
	if r.frozen {
		panic("router: Freeze called twice")
	}
	// Longest prefix first, so the most specific subtree wins the scan.
	sort.Slice(r.prefixes, func(i, j int) bool {
		return len(r.prefixes[i].prefix) > len(r.prefixes[j].prefix)
	})
	r.frozen = true
}

// Frozen reports whether Freeze has run.
func (r *Router) Frozen() bool { return r.frozen }

// Patterns lists every registered route, exact and prefix, sorted.
func (r *Router) Patterns() []string {
	out := make([]string, 0, len(r.static)+len(r.prefixes))
	for p := range r.static {
		out = append(out, p)
	}
	for _, p := range r.prefixes {
		out = append(out, p.prefix)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP dispatches against the frozen table.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !r.frozen {
		panic(errNotFrozen)
	}
	path := req.URL.Path
	if len(path) > r.maxPath {
		r.TooLong.Inc()
		r.reject(w, http.StatusRequestURITooLong, r.tooLongBody)
		return
	}
	if depth(path) > r.maxDepth {
		r.TooDeep.Inc()
		r.reject(w, http.StatusBadRequest, r.tooDeepBody)
		return
	}
	if h, ok := r.static[path]; ok {
		h.ServeHTTP(w, req)
		return
	}
	for i := range r.prefixes {
		if strings.HasPrefix(path, r.prefixes[i].prefix) {
			r.prefixes[i].handler.ServeHTTP(w, req)
			return
		}
	}
	r.NotFound.Inc()
	r.reject(w, http.StatusNotFound, r.notFoundBody)
}

// reject writes a preserialized error response with shared header slices,
// so the reject paths stay allocation-free under a scanner or flood.
func (r *Router) reject(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = r.textContentType
	h["X-Content-Type-Options"] = r.noSniff
	w.WriteHeader(status)
	w.Write(body)
}

// depth counts the path's segments: "/a/b" is 2, "/" is 0. A trailing
// slash opens a segment only if something follows it, so "/a/" is 1.
func depth(path string) int {
	n := 0
	for i := 0; i < len(path); i++ {
		if path[i] == '/' && i+1 < len(path) {
			n++
		}
	}
	return n
}
