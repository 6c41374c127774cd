// Package store mirrors the registry's store: inside it, and inside the
// packages that log before they apply, its mutating methods are the whole
// point and are not diagnosed.
package store

type Store struct{ objects map[string]string }

type Change struct{ Puts []string }

func (s *Store) Put(id string) error { s.Apply(Change{Puts: []string{id}}); return nil }

func (s *Store) Apply(c Change) {
	for _, id := range c.Puts {
		s.objects[id] = id
	}
}

func (s *Store) ApplyEncoded(puts [][]byte, c Change) error { s.Apply(c); return nil }

func (s *Store) Has(id string) bool { _, ok := s.objects[id]; return ok }
