package constraint_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/rim"
	"repro/internal/store"
)

// FuzzFromDescription: whatever a provider types into a description, the
// parser does not panic; what it accepts is the same constraint after a
// trip through its own XML; the text it hands back is the description with
// exactly the block cut out; and the digest discovery reads — computed per
// call on a hand-built view, once on a stored one — is this parse plus
// rim.HostOfURI of each URI, nothing else.
func FuzzFromDescription(f *testing.F) {
	f.Add("Adds numbers <constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 3GB</memory></constraint>", "http://thermo.sdsu.edu:8080/Adder/addService")
	f.Add("no block", "")
	f.Fuzz(func(t *testing.T, desc, uri string) {
		c, rest, err := constraint.FromDescription(desc)

		start, end := blockOf(desc)
		switch {
		case err != nil:
			if c != nil || rest != desc {
				t.Fatalf("%q rejected (%v) but returned %v, %q", desc, err, c, rest)
			}
		case start < 0:
			if c != nil || rest != desc {
				t.Fatalf("%q has no block but returned %v, %q", desc, c, rest)
			}
		default:
			if c == nil {
				t.Fatalf("%q has a well-formed block but no constraint came back", desc)
			}
			if want := strings.TrimSpace(desc[:start] + desc[end:]); rest != want {
				t.Fatalf("%q: rest %q, want %q", desc, rest, want)
			}
			again, _, err := constraint.FromDescription(c.XML())
			if err != nil {
				t.Fatalf("%q parsed to %q, which does not parse: %v", desc, c.XML(), err)
			}
			if c.IsZero() != again.IsZero() || !c.IsZero() && !reflect.DeepEqual(again, c) {
				t.Fatalf("%q: %#v became %#v through %q", desc, c, again, c.XML())
			}
		}

		uris := []string{uri, "http://h0.example:8080/x", uri}
		want := &store.Digest{Constraint: c, Err: err, Hosts: []string{rim.HostOfURI(uri), "h0.example", rim.HostOfURI(uri)}}
		sameDigest(t, desc, store.DiscoveryView{Description: desc, URIs: uris}.Digest(), want)

		svc := rim.NewService("fuzzed", desc)
		for _, u := range uris {
			svc.Bindings = append(svc.Bindings, rim.NewServiceBinding(svc.ID, u))
		}
		s := store.New()
		if err := s.Put(svc); err != nil {
			t.Fatal(err)
		}
		view, err := s.ServiceView(svc.ID)
		if err != nil {
			t.Fatal(err)
		}
		if uri == "" { // the view leaves out bindings without a URI
			want.Hosts = []string{"h0.example"}
		}
		sameDigest(t, desc, view.Digest(), want)
		if view.Digest() != view.Digest() {
			t.Fatalf("%q: a stored view digested twice", desc)
		}
	})
}

// blockOf locates the constraint block the way the thesis's
// ServiceConstraint does: the first <constraint>, or failing that the first
// <constrain>, up to the first matching end tag after it; start is -1
// without an opening tag and end is -1 without its end tag.
func blockOf(desc string) (start, end int) {
	for _, tag := range []string{"constraint", "constrain"} {
		if start = strings.Index(desc, "<"+tag+">"); start >= 0 {
			if end = strings.Index(desc[start:], "</"+tag+">"); end >= 0 {
				end += start + len("</"+tag+">")
			}
			return start, end
		}
	}
	return -1, -1
}

func sameDigest(t *testing.T, desc string, got, want *store.Digest) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error() {
		t.Fatalf("%q: digest error %v, parser %v", desc, got.Err, want.Err)
	}
	if !reflect.DeepEqual(got.Constraint, want.Constraint) || !reflect.DeepEqual(got.Hosts, want.Hosts) {
		t.Fatalf("%q: digest %+v, want %+v", desc, got, want)
	}
}
