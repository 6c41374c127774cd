package filterq

import "testing"

// FuzzFilterQueryParse: a filter query arrives in a client's request, so on
// any document Parse returns a query with a target whose clause tree
// validates, or an error, and running what it returns against the test
// catalog never panics. testdata/fuzz holds the queries of this package's
// tests as its corpus.
func FuzzFilterQueryParse(f *testing.F) {
	f.Add(`<FilterQuery target="Service"/>`)
	f.Fuzz(func(t *testing.T, doc string) {
		q, err := Parse(doc)
		if err != nil {
			return
		}
		if q.Target == "" {
			t.Fatal("accepted a query without a target")
		}
		if q.Root != nil {
			if err := validate(q.Root); err != nil {
				t.Fatalf("returned a clause tree that does not validate: %v", err)
			}
		}
		_, _ = Run(catalog(), q)
	})
}
