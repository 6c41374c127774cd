// Package pinneduse is the pinned rule's positive fixture: another
// package's non-test code reaching the names a package keeps in pinned.go.
package pinneduse

import "pinnedlib"

func serve(c *pinnedlib.Cache) string {
	hit := c.Get("k")                         // the serving path's name is free
	old := c.Lookup(pinnedlib.SpaceName, "k") // want `Lookup is kept only for bench/, which is frozen; use the name it adapts \(see its doc comment\) \(pinned\)` `SpaceName is kept only for bench/`
	lookup := (*pinnedlib.Cache).Lookup       // want `Lookup is kept only for bench/`
	var space pinnedlib.Space                 // want `Space is kept only for bench/`
	_, _ = lookup, space
	return hit + old + c.Legacy.Get("k") // want `Legacy is kept only for bench/`
}
