package rim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewUUIDFormat(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewUUID()
		if !IsUUIDURN(id) {
			t.Fatalf("NewUUID produced malformed id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate uuid %q", id)
		}
		seen[id] = true
		// Version and variant nibbles.
		u := strings.TrimPrefix(id, "urn:uuid:")
		if u[14] != '4' {
			t.Fatalf("uuid %q is not version 4", id)
		}
		switch u[19] {
		case '8', '9', 'a', 'b':
		default:
			t.Fatalf("uuid %q has wrong variant", id)
		}
	}
}

func TestIsURN(t *testing.T) {
	cases := map[string]bool{
		"urn:uuid:59bd7041-781f-4c57-b985-f0293588642b": true,
		"urn:oasis:names:tc:ebxml-regrep:ObjectType":    true,
		"http://example.com":                            false,
		"urn:":                                          false,
		"urn:x":                                         false,
		"urn:x:":                                        false,
		"urn:x:y":                                       true,
		"":                                              false,
	}
	for in, want := range cases {
		if got := IsURN(in); got != want {
			t.Errorf("IsURN(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestIsUUIDURN(t *testing.T) {
	good := "urn:uuid:59bd7041-781f-4c57-b985-f0293588642b"
	if !IsUUIDURN(good) {
		t.Fatalf("IsUUIDURN(%q) = false", good)
	}
	for _, bad := range []string{
		"urn:uuid:59bd7041",
		"urn:uuid:59bd7041-781f-4c57-b985-f0293588642g", // bad hex
		"urn:uuid:59bd7041x781f-4c57-b985-f0293588642b", // bad dash
		"uuid:59bd7041-781f-4c57-b985-f0293588642b",
	} {
		if IsUUIDURN(bad) {
			t.Errorf("IsUUIDURN(%q) = true", bad)
		}
	}
}

func TestSetUUIDSourceForTest(t *testing.T) {
	n := 0
	restore := SetUUIDSourceForTest(func() string {
		n++
		return "urn:test:" + strings.Repeat("a", n)
	})
	if got := NewUUID(); got != "urn:test:a" {
		t.Fatalf("stubbed uuid = %q", got)
	}
	restore()
	if !IsUUIDURN(NewUUID()) {
		t.Fatal("restore did not reinstate crypto generator")
	}
}

func TestSlots(t *testing.T) {
	ro := NewRegistryObject(TypeService, "svc")
	if _, ok := ro.SlotValue("copyright"); ok {
		t.Fatal("slot should be absent")
	}
	ro.SetSlot("copyright", "© 2011 SDSU")
	v, ok := ro.SlotValue("copyright")
	if !ok || v != "© 2011 SDSU" {
		t.Fatalf("slot value = %q, %v", v, ok)
	}
	ro.SetSlot("copyright", "v2")
	if v, _ := ro.SlotValue("copyright"); v != "v2" {
		t.Fatalf("slot not replaced: %q", v)
	}
	if len(ro.Slots) != 1 {
		t.Fatalf("SetSlot duplicated the slot: %d", len(ro.Slots))
	}
	if !ro.RemoveSlot("copyright") {
		t.Fatal("RemoveSlot failed")
	}
	if ro.RemoveSlot("copyright") {
		t.Fatal("RemoveSlot on absent slot returned true")
	}
}

func TestRegistryObjectValidate(t *testing.T) {
	ro := NewRegistryObject(TypeOrganization, "SDSU")
	if err := ro.Validate(); err != nil {
		t.Fatalf("valid object rejected: %v", err)
	}
	bad := ro
	bad.ID = ""
	if bad.Validate() == nil {
		t.Error("empty id accepted")
	}
	bad = ro
	bad.ID = "not-a-urn"
	if bad.Validate() == nil {
		t.Error("non-urn id accepted")
	}
	bad = ro
	bad.Status = "Frobnicated"
	if bad.Validate() == nil {
		t.Error("bad status accepted")
	}
	bad = ro
	bad.ObjectType = ""
	if bad.Validate() == nil {
		t.Error("empty objectType accepted")
	}
}

func TestInternationalString(t *testing.T) {
	s := NewIString("hello")
	if s.String() != "hello" || s.IsEmpty() {
		t.Fatalf("bad istring: %+v", s)
	}
	var empty InternationalString
	if empty.String() != "" || !empty.IsEmpty() {
		t.Fatal("empty istring misbehaves")
	}
	if !NewIString("").IsEmpty() {
		t.Fatal("NewIString(\"\") should be empty")
	}
}

func TestOrganizationValidate(t *testing.T) {
	o := NewOrganization("San Diego State University (SDSU)")
	if err := o.Validate(); err != nil {
		t.Fatalf("valid org rejected: %v", err)
	}
	o.ParentID = o.ID
	if o.Validate() == nil {
		t.Error("self-parent accepted")
	}
	o.ParentID = ""
	o.Name = InternationalString{}
	if o.Validate() == nil {
		t.Error("nameless org accepted")
	}
}

func TestOrganizationEntityStrings(t *testing.T) {
	a := PostalAddress{StreetNumber: "5500", Street: "Campanile Drive", City: "San Diego", State: "CA", Country: "US", PostalCode: "92182"}
	if got := a.String(); got != "5500 Campanile Drive, San Diego, CA, 92182, US" {
		t.Fatalf("address = %q", got)
	}
	if (PostalAddress{}).IsZero() != true || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
	p := TelephoneNumber{CountryCode: "1", AreaCode: "619", Number: "594-5200"}
	if got := p.String(); got != "+1 (619) 594-5200" {
		t.Fatalf("phone = %q", got)
	}
	n := PersonName{FirstName: "Sadhana", LastName: "Sahasrabudhe"}
	if n.String() != "Sadhana Sahasrabudhe" {
		t.Fatalf("name = %q", n.String())
	}
}

func TestServiceBindings(t *testing.T) {
	s := NewService("NodeStatus", "Service to monitor node status")
	b1 := s.AddBinding("http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService")
	b2 := s.AddBinding("http://exergy.sdsu.edu:8080/NodeStatus/NodeStatusService")
	if len(s.Bindings) != 2 {
		t.Fatalf("bindings = %d", len(s.Bindings))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid service rejected: %v", err)
	}
	if b1.Host() != "thermo.sdsu.edu" || b2.Host() != "exergy.sdsu.edu" {
		t.Fatalf("hosts = %q, %q", b1.Host(), b2.Host())
	}
	// Duplicate add returns the existing binding.
	if dup := s.AddBinding(b1.AccessURI); dup != b1 || len(s.Bindings) != 2 {
		t.Fatal("duplicate AddBinding created a new binding")
	}
	uris := s.AccessURIs()
	if len(uris) != 2 || uris[0] != b1.AccessURI {
		t.Fatalf("AccessURIs = %v", uris)
	}
	if s.BindingByURI("http://nowhere/") != nil {
		t.Fatal("BindingByURI found a ghost")
	}
	if !s.RemoveBinding(b2.AccessURI) || s.RemoveBinding(b2.AccessURI) {
		t.Fatal("RemoveBinding semantics wrong")
	}
}

func TestServiceValidateRejectsForeignBinding(t *testing.T) {
	s := NewService("S", "")
	b := NewServiceBinding("urn:uuid:00000000-0000-4000-8000-000000000000", "http://h/x")
	s.Bindings = append(s.Bindings, b)
	if s.Validate() == nil {
		t.Fatal("foreign binding accepted")
	}
}

func TestServiceBindingValidate(t *testing.T) {
	b := NewServiceBinding("svc", "http://eon.sdsu.edu:8080/TestWebService/TestWebServiceService")
	if err := b.Validate(); err != nil {
		t.Fatalf("valid binding rejected: %v", err)
	}
	b2 := NewServiceBinding("svc", "")
	if b2.Validate() == nil {
		t.Error("binding with neither uri nor target accepted")
	}
	b2.TargetBindingID = "urn:uuid:x"
	if err := b2.Validate(); err != nil {
		t.Errorf("target-only binding rejected: %v", err)
	}
	b3 := NewServiceBinding("svc", "not a uri")
	if b3.Validate() == nil {
		t.Error("relative/invalid uri accepted")
	}
}

func TestHostOfURI(t *testing.T) {
	cases := map[string]string{
		"http://volta.sdsu.edu:8080/omar/registry": "volta.sdsu.edu",
		"https://exergy.sdsu.edu/svc":              "exergy.sdsu.edu",
		"http://127.0.0.1:9999/x":                  "127.0.0.1",
		"::bad::":                                  "",
		// A bracketed literal keys the same NodeState row whatever its port.
		"http://[::1]:8080/x":                 "::1",
		"http://[::1]:9090/NodeStatus":        "::1",
		"http://[::1]/x":                      "::1",
		"http://[fe80::1%25en0]:8080/x":       "fe80::1%en0",
		"http://thermo.sdsu.edu":              "thermo.sdsu.edu",
		"http://thermo.sdsu.edu:":             "thermo.sdsu.edu",
		"http://thermo.sdsu.edu:80":           "thermo.sdsu.edu",
		"http://Thermo.SDSU.edu/a_b/~c/d-e.f": "Thermo.SDSU.edu",
		"svn+ssh://h-1.x:22/repo":             "h-1.x",
		"http://user:pw@thermo.sdsu.edu:1/x":  "thermo.sdsu.edu",
		"http://thermo.sdsu.edu/x?y=1#z":      "thermo.sdsu.edu",
		"http://thermo.sdsu.edu/%41":          "thermo.sdsu.edu",
		"http://thermo.sdsu.edu:http/x":       "",
		"http://thermo.sdsu.edu/%zz":          "",
		"http:///x":                           "",
		"1http://thermo.sdsu.edu/x":           "",
		"thermo.sdsu.edu:8080":                "",
		"":                                    "",
	}
	for in, want := range cases {
		if got := HostOfURI(in); got != want {
			t.Errorf("HostOfURI(%q) = %q, want %q", in, got, want)
		}
		if got := hostOfURIParsed(in); got != want {
			t.Errorf("hostOfURIParsed(%q) = %q, want %q", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { HostOfURI("http://volta.sdsu.edu:8080/omar/registry") }); n != 0 {
		t.Errorf("HostOfURI allocates %v times on the common shape, want 0", n)
	}
}

// FuzzHostOfURI: the scan agrees with url.Parse on every input.
func FuzzHostOfURI(f *testing.F) {
	f.Add("http://volta.sdsu.edu:8080/omar/registry")
	f.Fuzz(func(t *testing.T, uri string) {
		if got, want := HostOfURI(uri), hostOfURIParsed(uri); got != want {
			t.Fatalf("HostOfURI(%q) = %q, url.Parse form gives %q", uri, got, want)
		}
	})
}

func TestAssociationValidate(t *testing.T) {
	a := NewAssociation(AssocOffersService, "urn:uuid:a", "urn:uuid:b")
	if err := a.Validate(); err != nil {
		t.Fatalf("valid association rejected: %v", err)
	}
	self := NewAssociation(AssocOffersService, "urn:uuid:a", "urn:uuid:a")
	if self.Validate() == nil {
		t.Error("self association accepted")
	}
	empty := NewAssociation("", "urn:uuid:a", "urn:uuid:b")
	if empty.Validate() == nil {
		t.Error("typeless association accepted")
	}
	missing := NewAssociation(AssocHasMember, "", "urn:uuid:b")
	if missing.Validate() == nil {
		t.Error("sourceless association accepted")
	}
}

func TestClassificationValidate(t *testing.T) {
	in := NewInternalClassification("urn:uuid:o", "urn:uuid:node")
	if err := in.Validate(); err != nil {
		t.Fatalf("internal classification rejected: %v", err)
	}
	ex := NewExternalClassification("urn:uuid:o", "urn:uuid:naics", "111330")
	if err := ex.Validate(); err != nil {
		t.Fatalf("external classification rejected: %v", err)
	}
	both := NewExternalClassification("urn:uuid:o", "urn:uuid:naics", "111330")
	both.ClassificationNode = "urn:uuid:node"
	if both.Validate() == nil {
		t.Error("both internal and external accepted")
	}
	neither := &Classification{RegistryObject: NewRegistryObject(TypeClassification, "")}
	if neither.Validate() == nil {
		t.Error("neither internal nor external accepted")
	}
	half := &Classification{RegistryObject: NewRegistryObject(TypeClassification, "")}
	half.ClassificationScheme = "urn:uuid:s"
	if half.Validate() == nil {
		t.Error("external without value accepted")
	}
}

func TestClassificationNodeValidate(t *testing.T) {
	n := NewClassificationNode("urn:uuid:scheme", "111330", "Strawberry Farming")
	if err := n.Validate(); err != nil {
		t.Fatalf("valid node rejected: %v", err)
	}
	n.Code = ""
	if n.Validate() == nil {
		t.Error("codeless node accepted")
	}
	n.Code = "x"
	n.ParentID = ""
	if n.Validate() == nil {
		t.Error("orphan node accepted")
	}
}

func TestExternalLinkAndIdentifier(t *testing.T) {
	l := NewExternalLink("spec", "http://www.unspsc.org")
	if err := l.Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	l.ExternalURI = ""
	if l.Validate() == nil {
		t.Error("uri-less link accepted")
	}
	e := NewExternalIdentifier("urn:uuid:o", "D-U-N-S", "123456789")
	if err := e.Validate(); err != nil {
		t.Fatalf("valid identifier rejected: %v", err)
	}
	e.Value = ""
	if e.Validate() == nil {
		t.Error("valueless identifier accepted")
	}
}

func TestAdhocQueryValidate(t *testing.T) {
	q := NewAdhocQuery("FindServicesByName", "SQL-92", "SELECT s.id FROM Service s WHERE s.name LIKE $name")
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	q.QuerySyntax = "XQuery"
	if q.Validate() == nil {
		t.Error("unknown syntax accepted")
	}
	q.QuerySyntax = "SQL-92"
	q.Query = ""
	if q.Validate() == nil {
		t.Error("empty query accepted")
	}
}

func TestAuditableEvent(t *testing.T) {
	at := time.Date(2011, 4, 22, 12, 0, 0, 0, time.UTC)
	e := NewAuditableEvent(EventCreated, "urn:uuid:user", at, "urn:uuid:a", "urn:uuid:b")
	if e.EventKind != EventCreated || len(e.AffectedIDs) != 2 || !e.Timestamp.Equal(at) {
		t.Fatalf("event = %+v", e)
	}
	if e.Status != StatusApproved {
		t.Fatal("events should be born approved")
	}
}

func TestUserValidate(t *testing.T) {
	u := NewUser("gold", PersonName{FirstName: "Test", LastName: "User"})
	if err := u.Validate(); err != nil {
		t.Fatalf("valid user rejected: %v", err)
	}
	u.Alias = ""
	if u.Validate() == nil {
		t.Error("aliasless user accepted")
	}
}

func TestObjectTypeShort(t *testing.T) {
	if TypeService.Short() != "Service" {
		t.Fatalf("Short = %q", TypeService.Short())
	}
	if ObjectType("Custom").Short() != "Custom" {
		t.Fatal("Short on unqualified type")
	}
}

// Property: every constructor yields an object that passes Validate and has
// a unique well-formed id.
func TestConstructorsValidProperty(t *testing.T) {
	f := func(name string) bool {
		if name == "" {
			name = "x"
		}
		objs := []interface{ Validate() error }{
			NewOrganization(name),
			NewService(name, "d"),
			NewServiceBinding("urn:uuid:s", "http://h.example/"+"p"),
			NewAssociation(AssocOffersService, "urn:uuid:a", "urn:uuid:b"),
			NewUser(name, PersonName{}),
			NewClassificationNode("urn:uuid:p", "c", name),
			NewExternalLink(name, "http://x/"),
			NewExternalIdentifier("urn:uuid:o", "DUNS", "1"),
			NewAdhocQuery(name, "SQL-92", "SELECT 1"),
		}
		for _, o := range objs {
			if o.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
