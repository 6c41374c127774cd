// Package lockcheck is the lockorder fixture for the `// guarded by mu`
// convention: guarded fields touched by a function that never acquires
// their mutex are diagnosed; disciplined methods and *Locked helpers stay
// clean.
package lockcheck

import "sync"

type table struct {
	mu   sync.Mutex
	rows map[string]int // guarded by mu
}

func newTable() *table {
	return &table{rows: make(map[string]int)}
}

func (t *table) Get(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows[k]
}

func (t *table) Bad(k string) int {
	return t.rows[k] // want `table\.rows is guarded by "mu" but Bad never acquires it`
}

// sizeLocked follows the caller-holds-lock naming convention.
func (t *table) sizeLocked() int { return len(t.rows) }

// stats has two mutexes; acquiring the wrong one is still a violation.
type stats struct {
	mu      sync.RWMutex
	rows    map[string]int // guarded by mu
	hitsMu  sync.Mutex
	hits    int // guarded by hitsMu
	uncared int
}

func (s *stats) Read(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows[k]
}

func (s *stats) WrongMutex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.uncared++
	return s.hits // want `stats\.hits is guarded by "hitsMu" but WrongMutex never acquires it`
}

// catalog keeps its guarded state in an embedded struct, so that it can be
// replaced in one assignment; the guard covers the promoted fields.
type catalog struct {
	mu    sync.Mutex
	state // guarded by mu
}

type state struct {
	byID   map[string]int
	byName map[string]int
}

func (c *catalog) Adopt(from *catalog) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = from.state
}

func (c *catalog) BadPromoted(k string) int {
	return c.byID[k] // want `catalog\.byID is guarded by "mu" but BadPromoted never acquires it`
}

func (c *catalog) BadWhole() state {
	return c.state // want `catalog\.state is guarded by "mu" but BadWhole never acquires it`
}

// wrapper reaches a guarded field through another struct; the acquire on
// the owning value still counts.
type wrapper struct{ tab *table }

func (w *wrapper) Good(k string) int {
	w.tab.mu.Lock()
	defer w.tab.mu.Unlock()
	return w.tab.rows[k]
}

func (w *wrapper) Bad(k string) int {
	return w.tab.rows[k] // want `table\.rows is guarded by "mu" but Bad never acquires it`
}
