package pinneduse

import (
	"pinnedlib"
	"testing"
)

// Tests may drive the adapters.
func TestAdapters(t *testing.T) {
	c := &pinnedlib.Cache{}
	if c.Lookup(pinnedlib.SpaceName, "k") != "k" {
		t.Fatal("Lookup")
	}
}
