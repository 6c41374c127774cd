// Package storewrite is the storewrite rule's positive fixture: a package
// that is neither the store, the manager, the log nor the taxonomy seed,
// holding a *store.Store and writing to it.
package storewrite

import "store"

type Pool struct{}

func (Pool) Put(string) error { return nil }

type registry struct {
	Store *store.Store
	pool  Pool
}

func (r *registry) register(id string) error {
	if r.Store.Has(id) { // reads are free
		return nil
	}
	if err := r.pool.Put(id); err != nil { // another type's Put
		return err
	}
	return r.Store.Put(id) // want `Store\.Put changes the registry's tables behind the write-ahead log; use an lcm\.Manager operation \(PutDirect for a server-managed object\) \(storewrite\)`
}

func replay(s *store.Store, c store.Change) error {
	s.Apply(c)                  // want `Store\.Apply changes the registry's tables`
	write := (*store.Store).Put // want `Store\.Put changes the registry's tables`
	_ = write
	return s.ApplyEncoded(nil, c) // want `Store\.ApplyEncoded changes the registry's tables`
}
