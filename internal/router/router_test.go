package router

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func okHandler(tag string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(tag))
	})
}

func get(t *testing.T, r *Router, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestExactMatch(t *testing.T) {
	r := New(Config{})
	r.Handle("/registry/bindings", okHandler("bindings"))
	r.HandleFunc("/registry/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("health"))
	})
	r.Freeze()

	if rec := get(t, r, "/registry/bindings"); rec.Body.String() != "bindings" {
		t.Fatalf("bindings route: got %q", rec.Body.String())
	}
	if rec := get(t, r, "/registry/health"); rec.Body.String() != "health" {
		t.Fatalf("health route: got %q", rec.Body.String())
	}
}

func TestExactMatchDoesNotCoverSubpaths(t *testing.T) {
	r := New(Config{})
	r.Handle("/registry/bindings", okHandler("bindings"))
	r.Freeze()

	for _, path := range []string{"/registry/bindings/", "/registry/bindings/x", "/registry", "/"} {
		if rec := get(t, r, path); rec.Code != http.StatusNotFound {
			t.Fatalf("%s: code = %d, want 404", path, rec.Code)
		}
	}
	if got := r.NotFound.Value(); got != 4 {
		t.Fatalf("NotFound = %d, want 4", got)
	}
}

func TestPrefixMatchLongestWins(t *testing.T) {
	r := New(Config{})
	r.HandlePrefix("/debug/", okHandler("debug"))
	r.HandlePrefix("/debug/pprof/", okHandler("pprof"))
	r.Handle("/debug/pprof/cmdline", okHandler("cmdline"))
	r.Freeze()

	if rec := get(t, r, "/debug/pprof/heap"); rec.Body.String() != "pprof" {
		t.Fatalf("pprof subtree: got %q", rec.Body.String())
	}
	if rec := get(t, r, "/debug/vars"); rec.Body.String() != "debug" {
		t.Fatalf("debug subtree: got %q", rec.Body.String())
	}
	// Exact match beats any prefix.
	if rec := get(t, r, "/debug/pprof/cmdline"); rec.Body.String() != "cmdline" {
		t.Fatalf("exact over prefix: got %q", rec.Body.String())
	}
}

func TestPathTooLong(t *testing.T) {
	r := New(Config{MaxPathLength: 32})
	r.Handle("/ok", okHandler("ok"))
	r.Freeze()

	rec := get(t, r, "/"+strings.Repeat("a", 64))
	if rec.Code != http.StatusRequestURITooLong {
		t.Fatalf("code = %d, want 414", rec.Code)
	}
	if r.TooLong.Value() != 1 {
		t.Fatalf("TooLong = %d, want 1", r.TooLong.Value())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestPathTooDeep(t *testing.T) {
	r := New(Config{MaxDepth: 3})
	r.Handle("/a/b/c", okHandler("ok"))
	r.Freeze()

	if rec := get(t, r, "/a/b/c"); rec.Code != http.StatusOK {
		t.Fatalf("at-limit path: code = %d", rec.Code)
	}
	rec := get(t, r, "/a/b/c/d")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400", rec.Code)
	}
	if r.TooDeep.Value() != 1 {
		t.Fatalf("TooDeep = %d, want 1", r.TooDeep.Value())
	}
}

func TestDepth(t *testing.T) {
	cases := map[string]int{
		"/":        0,
		"":         0,
		"/a":       1,
		"/a/":      1,
		"/a/b":     2,
		"/a/b/c/d": 4,
		"//":       1,
	}
	for path, want := range cases {
		if got := depth(path); got != want {
			t.Errorf("depth(%q) = %d, want %d", path, got, want)
		}
	}
}

func TestFreezeDiscipline(t *testing.T) {
	r := New(Config{})
	r.Handle("/x", okHandler("x"))

	mustPanic(t, "serve before freeze", func() {
		r.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	})
	r.Freeze()
	mustPanic(t, "handle after freeze", func() { r.Handle("/y", okHandler("y")) })
	mustPanic(t, "double freeze", func() { r.Freeze() })
}

func TestRegistrationPanics(t *testing.T) {
	r := New(Config{})
	r.Handle("/dup", okHandler("a"))
	mustPanic(t, "duplicate route", func() { r.Handle("/dup", okHandler("b")) })
	mustPanic(t, "bad pattern", func() { r.Handle("no-slash", okHandler("c")) })
	mustPanic(t, "nil handler", func() { r.Handle("/nil", nil) })
	r.HandlePrefix("/p/", okHandler("p"))
	mustPanic(t, "duplicate prefix", func() { r.HandlePrefix("/p/", okHandler("q")) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func BenchmarkRouterDispatch(b *testing.B) {
	r := New(Config{})
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	r.Handle("/registry/bindings", noop)
	r.Handle("/registry/health", noop)
	r.HandlePrefix("/debug/pprof/", noop)
	r.Freeze()

	req := httptest.NewRequest(http.MethodGet, "/registry/bindings", nil)
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ServeHTTP(w, req)
	}
}

type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopResponseWriter) WriteHeader(int)             {}
