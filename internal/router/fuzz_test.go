package router

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The registry's route tables (registry.serviceRoutes and operatorRoutes,
// with a leader's two replication paths and the pprof rows): what
// FuzzRouterPath freezes.
var (
	registryExact = []string{
		"/soap/registry", "/soap/auth",
		"/registry/object", "/registry/find", "/registry/bindings", "/registry/query", "/registry/content",
		"/registry/nodestate", "/registry/health", "/registry/metrics", "/registry/traces", "/registry/flight",
		"/registry/debug/bundle", "/ui",
		"/registry/repl/wal", "/registry/repl/checkpoint",
		"/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace",
	}
	registryPrefixes = []string{"/debug/pprof/"}
)

// registryRoutesInSource reads the patterns the registry registers off its
// source, so the lists above cannot fall behind it. The replication paths
// are registered through constants of internal/repl.
func registryRoutesInSource(t testing.TB) []string {
	t.Helper()
	found := []string{"/registry/repl/wal", "/registry/repl/checkpoint"}
	row := regexp.MustCompile(`\{"(/[^"]*)",`)
	src, err := os.ReadFile("../registry/httpserver.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range row.FindAllSubmatch(src, -1) {
		found = append(found, string(m[1]))
	}
	sort.Strings(found)
	return found
}

// FuzzRouterPath: a frozen router over the registry's pattern set never
// panics on a path from the network; it hands a request to a registered
// route exactly when a plain map lookup, then the longest matching prefix,
// says so; and everything else gets the preserialized 414, 400 or 404 and
// moves that reject's counter and no other.
func FuzzRouterPath(f *testing.F) {
	listed := append(append([]string{}, registryExact...), registryPrefixes...)
	sort.Strings(listed)
	if inSource := registryRoutesInSource(f); strings.Join(listed, " ") != strings.Join(inSource, " ") {
		f.Fatalf("the registry registers %v, this test freezes %v", inSource, listed)
	}

	// Every route answers 200 with its own pattern as the body.
	rt := New(Config{})
	exact := map[string]bool{}
	for _, p := range registryExact {
		exact[p] = true
		rt.Handle(p, okHandler(p))
	}
	for _, p := range registryPrefixes {
		rt.HandlePrefix(p, okHandler(p))
	}
	rt.Freeze()
	rejects := []struct {
		status  int
		body    string
		counter *metrics.Counter
	}{
		{http.StatusRequestURITooLong, "request path exceeds the configured limit\n", &rt.TooLong},
		{http.StatusBadRequest, "request path nested deeper than the configured limit\n", &rt.TooDeep},
		{http.StatusNotFound, "404 page not found\n", &rt.NotFound},
	}
	const tooLong, tooDeep, notFound = 0, 1, 2

	f.Add("/registry/bindings")
	f.Add("/debug/pprof/heap")
	f.Fuzz(func(t *testing.T, path string) {
		// The oracle: which reject, or else which pattern.
		reject, route := -1, ""
		segments := strings.Count(path, "/")
		if strings.HasSuffix(path, "/") {
			segments--
		}
		switch {
		case len(path) > DefaultMaxPathLength:
			reject = tooLong
		case segments > DefaultMaxDepth:
			reject = tooDeep
		case exact[path]:
			route = path
		default:
			for _, p := range registryPrefixes {
				if strings.HasPrefix(path, p) && len(p) > len(route) {
					route = p
				}
			}
			if route == "" {
				reject = notFound
			}
		}
		wantStatus, wantBody := http.StatusOK, route
		if reject >= 0 {
			wantStatus, wantBody = rejects[reject].status, rejects[reject].body
		}

		var before [3]int64
		for i := range rejects {
			before[i] = rejects[i].counter.Value()
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path}})

		if rec.Code != wantStatus || rec.Body.String() != wantBody {
			t.Fatalf("%q: status %d, body %q; want %d, %q", path, rec.Code, rec.Body.String(), wantStatus, wantBody)
		}
		if reject >= 0 && (rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" || rec.Header().Get("X-Content-Type-Options") != "nosniff") {
			t.Fatalf("%q: reject headers %v", path, rec.Header())
		}
		for i := range rejects {
			want := before[i]
			if i == reject {
				want++
			}
			if got := rejects[i].counter.Value(); got != want {
				t.Fatalf("%q: reject counter %d reads %d, want %d", path, i, got, want)
			}
		}
	})
}
