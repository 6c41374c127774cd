package registry

// serviceParam, the allocation-free reader of the REST discovery query that
// cached answers are keyed by, against net/url: whatever it accepts,
// req.URL.Query().Get("service") — what the miss path reads — agrees with.

import (
	"net/url"
	"testing"
)

// checkServiceParam requires an accepted value to be the one net/url
// decodes from raw.
func checkServiceParam(t *testing.T, raw string) {
	t.Helper()
	got, ok := serviceParam(raw)
	if !ok {
		return
	}
	u := url.URL{RawQuery: raw}
	if want := u.Query().Get("service"); got == "" || got != want {
		t.Fatalf("serviceParam(%q) = %q, net/url reads %q", raw, got, want)
	}
}

func TestServiceParam(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want string
		ok   bool
	}{
		{"service=Adder", "Adder", true},
		{"a=1&service=Adder&b=2", "Adder", true},
		{"service=Adder&service=Other", "Adder", true},
		{"service=a=b", "a=b", true},
		{"&&service=Adder", "Adder", true},
		{"bad=%zz&service=Adder", "", false},
		{"service=Add%65r", "", false},
		{"service=Add+er", "", false},
		{"service=Adder;x=1", "", false},
		{"service=", "", false},
		{"service", "", false},
		{"Service=Adder", "", false},
		{"", "", false},
	} {
		got, ok := serviceParam(tc.raw)
		if got != tc.want || ok != tc.ok {
			t.Errorf("serviceParam(%q) = %q, %v; want %q, %v", tc.raw, got, ok, tc.want, tc.ok)
		}
		checkServiceParam(t, tc.raw)
	}
}

// FuzzServiceParam: whenever the fast path accepts a query, net/url reads
// the same service from it.
func FuzzServiceParam(f *testing.F) {
	for _, raw := range []string{
		"service=Adder",
		"x=1&service=Adder&service=Other",
		"service=a=b&c",
		"=&service=%41",
		"a=%zz&service=Adder",
		"service=Adder;b",
		"service=A+B",
	} {
		f.Add(raw)
	}
	f.Fuzz(checkServiceParam)
}
