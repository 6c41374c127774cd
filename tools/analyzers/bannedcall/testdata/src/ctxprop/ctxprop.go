// Package ctxprop is the positive fixture for the ctxprop row:
// context.Background and context.TODO in a library function without the
// shim annotation, called or passed as a value.
package ctxprop

import "context"

func fetch(ctx context.Context, url string) error { return nil }

func bareBackground() error {
	ctx := context.Background() // want `context\.Background in library code detaches`
	return fetch(ctx, "x")
}

func bareTODO() context.Context {
	return context.TODO() // want `context\.TODO in library code detaches`
}

// A function value leaks the detached context just as a call does.
var makeCtx = context.Background // want `context\.Background in library code detaches`

// The directive must name the ctxprop row; another does not exempt.
//
//repolint:other-allow not the ctxprop directive
func wrongDirective() error {
	return fetch(context.Background(), "x") // want `context\.Background in library code detaches`
}
