package storewrite

import (
	"store"
	"testing"
)

// Tests build fixtures straight into a store.
func TestFixture(t *testing.T) {
	s := &store.Store{}
	if err := s.Put("urn:uuid:fixture"); err != nil {
		t.Fatal(err)
	}
}
