// Package ctxpropclean is the negative fixture for the ctxprop row: an
// annotated compatibility shim may call context.Background, and code
// that threads its caller's context is clean.
package ctxpropclean

import "context"

func fetch(ctx context.Context, url string) error { return nil }

// Fetch is a compatibility shim kept for callers without a context.
//
//repolint:ctxprop-allow context-free wrapper retained for callers without a context
func Fetch(url string) error {
	return fetch(context.Background(), url)
}

// Shim closures inherit their function's annotation.
//
//repolint:ctxprop-allow context-free wrapper retained for callers without a context
func FetchLater(url string) func() error {
	return func() error { return fetch(context.TODO(), url) }
}

func threads(ctx context.Context) error {
	return fetch(ctx, "x")
}
