package store

// decodeObject reads a Service and an AuditableEvent with a hand-written
// scanner and every other class, or anything odd, with encoding/json. The stored format is whatever
// json.Marshal writes and json.Unmarshal reads, so the scanner is held to
// that: a table of the shapes that matter, a differential fuzz target over
// the same table, a guard that the common shape really takes the fast path,
// and the one thing neither decoder may let through — a null where an object
// belongs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rim"
)

// thesisService is the running example of the thesis (§3.2): ServiceAdder,
// its constraint block in the description, bound on two hosts.
func thesisService() *rim.Service {
	svc := rim.NewService("ServiceAdder", "Adds numbers. <constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory></constraint>")
	svc.ID = "urn:uuid:00000000-0000-4000-8000-000000000001"
	svc.LID = svc.ID
	svc.Owner = "urn:uuid:00000000-0000-4000-8000-00000000cafe"
	for i, uri := range []string{"http://thermo.sdsu.edu:8080/Adder/AdderService", "http://exergy.sdsu.edu:8080/Adder/AdderService"} {
		b := svc.AddBinding(uri)
		b.ID = "urn:uuid:00000000-0000-4000-8000-00000000001" + string(rune('0'+i))
		b.LID, b.Owner = b.ID, svc.Owner
	}
	return svc
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// decodeSeed is one input of the differential check; fast says whether the
// scanner must take it or must decline it.
type decodeSeed struct {
	kind string
	body []byte
	fast bool
}

// decodeSeeds are the shapes the scanner has to get right or has to leave
// alone, by name; testdata/fuzz/FuzzDecodeObject is the same rows as corpus
// files (TestDecodeSeedsAreTheCommittedCorpus).
func decodeSeeds(tb testing.TB) map[string]decodeSeed {
	thesis := marshal(tb, thesisService())
	edit := func(old, new string) []byte {
		if !bytes.Contains(thesis, []byte(old)) {
			tb.Fatalf("the thesis service has no %s to edit", old)
		}
		return bytes.Replace(thesis, []byte(old), []byte(new), 1)
	}

	escapes := thesisService()
	// Every class of escape encoding/json writes: the short ones, \u00XX
	// for other controls, the HTML three, the line separators, and U+FFFD
	// for bytes that were not UTF-8.
	escapes.Description = rim.NewIString("quote\" back\\slash tab\t nl\n cr\r bs\b ff\f nul\x00 esc\x1b <a href='x'>&amp;</a> ls \xe2\x80\xa8 ps \xe2\x80\xa9 del\x7f bad\xff\xfe")
	nonASCII := thesisService()
	nonASCII.Name = rim.NewIString("Añadir-数-Ω-😀")
	slots := thesisService()
	slots.Slots = []rim.Slot{{Name: "copyright", SlotType: "text", Values: []string{"SDSU <2011>"}}}
	slots.Bindings[0].Slots = []rim.Slot{{Name: "rack", Values: nil}}
	slots.Classifications = []*rim.Classification{rim.NewExternalClassification(slots.ID, "urn:scheme", "compute")}
	slots.Bindings[1].SpecificationLinks = []*rim.SpecificationLink{rim.NewSpecificationLink(slots.Bindings[1].ID, "urn:uuid:wsdl")}
	org := rim.NewOrganization("SDSU")
	// The constructors draw random ids; the corpus files need the same bytes
	// on every run.
	for _, r := range []*rim.RegistryObject{slots.Classifications[0].Base(), slots.Bindings[1].SpecificationLinks[0].Base(), org.Base()} {
		r.ID = "urn:uuid:" + r.ObjectType.Short()
		r.LID = r.ID
	}
	bare := &rim.Service{RegistryObject: rim.RegistryObject{ID: "urn:x", ObjectType: rim.TypeService}}
	event := rim.NewAuditableEvent(rim.EventCreated, "urn:uuid:user", time.Date(2011, 4, 22, 2, 0, 0, 123, time.UTC), "urn:uuid:a", "urn:uuid:b")
	event.ID, event.LID = "urn:uuid:event", "urn:uuid:event"
	eventJSON := marshal(tb, event)
	editEvent := func(old, new string) []byte {
		if !bytes.Contains(eventJSON, []byte(old)) {
			tb.Fatalf("the event has no %s to edit", old)
		}
		return bytes.Replace(eventJSON, []byte(old), []byte(new), 1)
	}
	pdt := rim.NewAuditableEvent(rim.EventUpdated, "urn:uuid:user", time.Date(2011, 4, 22, 2, 0, 0, 0, time.FixedZone("PDT", -7*3600)))
	pdt.ID, pdt.LID = "urn:uuid:event", "urn:uuid:event"
	pdt.Slots = []rim.Slot{{Name: "request", Values: []string{"r-1"}}}
	pdt.RequestID = "r-1"

	// The thesis service with its keys in the reverse of the encoder's
	// order: Bindings come before the ID and Owner they repeat.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(thesis, &fields); err != nil {
		tb.Fatal(err)
	}
	keys := []string{"ID", "LID", "Name", "Description", "ObjectType", "Status", "Home", "Owner", "Version",
		"Slots", "Classifications", "ExternalIdentifiers", "Bindings"}
	if len(keys) != len(fields) {
		tb.Fatalf("a Service marshals %d fields, the test knows %d", len(fields), len(keys))
	}
	reversed := []byte("{")
	for i := len(keys) - 1; i >= 0; i-- {
		reversed = append(append(append(reversed, marshal(tb, keys[i])...), ':'), fields[keys[i]]...)
		if i > 0 {
			reversed = append(reversed, ',')
		}
	}
	reversed = append(reversed, '}')
	var indented bytes.Buffer
	if err := json.Indent(&indented, thesis, "", " "); err != nil {
		tb.Fatal(err)
	}

	return map[string]decodeSeed{
		"thesis-example":          {"Service", thesis, true},
		"binding-on-its-own":      {"ServiceBinding", marshal(tb, thesisService().Bindings[0]), false},
		"auditable-event":         {"AuditableEvent", eventJSON, true},
		"event-non-utc-slots":     {"AuditableEvent", marshal(tb, pdt), true},
		"event-no-affected":       {"AuditableEvent", editEvent(`"AffectedIDs":["urn:uuid:a","urn:uuid:b"]`, `"AffectedIDs":null`), true},
		"event-empty-affected":    {"AuditableEvent", editEvent(`"AffectedIDs":["urn:uuid:a","urn:uuid:b"]`, `"AffectedIDs":[]`), false},
		"event-null-timestamp":    {"AuditableEvent", editEvent(`"Timestamp":"2011-04-22T02:00:00.000000123Z"`, `"Timestamp":null`), false},
		"event-escaped-timestamp": {"AuditableEvent", editEvent(`"Timestamp":"2011`, `"Timestamp":"\u0032011`), false},
		"event-bad-timestamp":     {"AuditableEvent", editEvent(`"Timestamp":"2011`, `"Timestamp":"99999`), false},
		"event-duplicate-kind":    {"AuditableEvent", editEvent(`"EventKind":"Created"`, `"EventKind":"Created","EventKind":"Deleted"`), false},
		"every-escape-class":      {"Service", marshal(tb, escapes), true},
		"non-ascii-name":          {"Service", marshal(tb, nonASCII), true},
		"slots-and-links":         {"Service", marshal(tb, slots), true},
		"no-bindings":             {"Service", marshal(tb, bare), true},
		"empty-object":            {"Service", []byte(`{}`), true},
		"keys-reversed":           {"Service", reversed, true},
		"escaped-solidus":         {"Service", edit(`"Home":""`, `"Home":"http:\/\/home"`), true},
		"upper-case-hex":          {"Service", edit("\\u003cconstraint", "\\u003Cconstraint"), true},
		"null-binding":            {"Service", edit(`"Bindings":[{`, `"Bindings":[null,{`), false},
		"null-classification":     {"Service", edit(`"Classifications":null`, `"Classifications":[null]`), true},
		"duplicate-key":           {"Service", edit(`"Home":""`, `"Home":"a","Home":""`), false},
		"case-variant-key":        {"Service", edit(`"Home":""`, `"home":"h"`), false},
		"unknown-key":             {"Service", edit(`"Home":""`, `"Home":"","Flavour":1`), false},
		"empty-bindings":          {"Service", edit(thesisBindings(tb, thesis), `[]`), false},
		"empty-localized":         {"Service", edit(`"Description":{"Localized":[`, `"Description":{"Localized":[],"x":[`), false},
		"null-string":             {"Service", edit(`"Home":""`, `"Home":null`), false},
		"number-for-string":       {"Service", edit(`"Home":""`, `"Home":7`), false},
		"surrogate-pair":          {"Service", edit("Adds numbers", "Adds \\ud83d\\ude00 numbers"), false},
		"lone-surrogate":          {"Service", edit(`Adds numbers`, `Adds \ud83d numbers`), false},
		"invalid-utf8":            {"Service", edit(`Adds numbers`, "Adds \xff numbers"), false},
		"raw-control-byte":        {"Service", edit(`Adds numbers`, "Adds \x01 numbers"), false},
		"bad-escape":              {"Service", edit(`Adds numbers`, `Adds \x numbers`), false},
		"short-u-escape":          {"Service", edit(`Adds numbers`, `Adds \u12`), false},
		"escaped-key":             {"Service", edit(`"Home":""`, "\"\\u0048ome\":\"\""), false},
		"whitespace":              {"Service", indented.Bytes(), false},
		"trailing-bytes":          {"Service", append(append([]byte(nil), thesis...), ' ', '1'), false},
		"trailing-newline":        {"Service", append(append([]byte(nil), thesis...), '\n'), false},
		"truncated":               {"Service", thesis[:len(thesis)/2], false},
		"array":                   {"Service", []byte(`[1,2]`), false},
		"slots-malformed":         {"Service", edit(`"Slots":null`, `"Slots":[{"Name":1}]`), false},
		"slots-unbalanced":        {"Service", edit(`"Slots":null`, `"Slots":[{]}`), false},
		"other-class":             {"Organization", marshal(tb, org), false},
		"unknown-class":           {"Martian", []byte(`{}`), false},
	}
}

// thesisBindings returns the text of the thesis service's Bindings array.
func thesisBindings(tb testing.TB, thesis []byte) string {
	var fields struct{ Bindings json.RawMessage }
	if err := json.Unmarshal(thesis, &fields); err != nil {
		tb.Fatal(err)
	}
	return string(fields.Bindings)
}

// checkDecodesLikeJSON holds decodeObject to json.Unmarshal on one input
// and returns whether the scanner took it.
func checkDecodesLikeJSON(t *testing.T, kind string, body []byte) (fast bool) {
	t.Helper()
	want, wantErr := unmarshalObject(kind, body)
	got, exact, err := decodeObject(kind, body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeObject error = %v, json.Unmarshal's = %v", err, wantErr)
	}
	_, _, fast = scanObject(kind, body)
	if err != nil {
		if fast {
			t.Fatal("the scanner accepted what json.Unmarshal refuses")
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("decodeObject error %q, json.Unmarshal's %q", err, wantErr)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded value differs from json.Unmarshal's\n got: %s\nwant: %s", marshal(t, got), marshal(t, want))
	}
	encoded := marshal(t, got)
	if !bytes.Equal(encoded, marshal(t, want)) {
		t.Fatalf("decoded value marshals differently from json.Unmarshal's\n got: %s\nwant: %s", encoded, marshal(t, want))
	}

	// Copies, not views: nothing decoded changes with the input.
	scribbled := append([]byte(nil), body...)
	again, _, err := decodeObject(kind, scribbled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scribbled {
		scribbled[i] = 'x'
	}
	if !bytes.Equal(marshal(t, again), encoded) {
		t.Fatal("the decoded object changed when the input was overwritten")
	}

	// The store files an object under its ObjectType, whatever class it was
	// decoded as: the rest is about objects that say what they are.
	if defect(got) != "" || kindOf(got) != kind {
		return fast
	}
	// What exact promises ApplyEncoded: a Clone would change nothing.
	if exact && !reflect.DeepEqual(rim.CloneObject(got), got) {
		t.Fatalf("an object reported exact is not its own Clone: %s", encoded)
	}
	// ApplyEncoded stores what Put stores, and that survives Save and Load.
	viaPut, viaEncoded := New(), New()
	if err := viaPut.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := viaEncoded.ApplyEncoded([]Envelope{{Kind: kind, Data: body}}, Change{}); err != nil {
		t.Fatal(err)
	}
	snap := saved(t, viaPut)
	if !bytes.Equal(saved(t, viaEncoded), snap) {
		t.Fatalf("ApplyEncoded and Put(decoded) store different objects for %s", body)
	}
	loaded := New()
	if err := loaded.Load(bytes.NewReader(snap)); err != nil {
		t.Fatalf("the stored object does not load back: %v", err)
	}
	if !bytes.Equal(saved(t, loaded), snap) {
		t.Fatal("the stored object does not survive Save, Load, Save")
	}
	return fast
}

func TestDecodeObjectMatchesJSON(t *testing.T) {
	for name, seed := range decodeSeeds(t) {
		name, seed := name, seed
		t.Run(name, func(t *testing.T) {
			fast := checkDecodesLikeJSON(t, seed.kind, seed.body)
			if fast != seed.fast {
				t.Fatalf("scanner took the input = %v, want %v", fast, seed.fast)
			}
		})
	}
}

// FuzzDecodeObject: on any class and any bytes, the scanner with its
// fallback is json.Unmarshal — the same error or the same value, marshalling
// to the same bytes — the value shares no memory with the input, and it is
// stored, saved and loaded back unchanged.
func FuzzDecodeObject(f *testing.F) {
	f.Add("Service", marshal(f, populationService(rand.New(rand.NewSource(1)), 1, 3)))
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		checkDecodesLikeJSON(t, kind, body)
	})
}

// TestFastPathTakesThePopulation: the appenders and the scanner are worth
// having only while they take what is actually stored. Over a population
// shaped like the benchmark's — constraint blocks in nine descriptions in
// ten, HTML-escaped by the encoder — plus a slot and a non-ASCII name, and
// the audit event each publish stores beside its service, every Service and
// AuditableEvent is written by its appender and every frame of either class
// decodes without the fallback; a missed escape would give the whole gain
// back without failing any other test.
func TestFastPathTakesThePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	constrained := 0
	for i := 0; i < 200; i++ {
		svc := populationService(rng, i, 1+rng.Intn(8))
		switch i {
		case 3:
			svc.Slots = []rim.Slot{{Name: "copyright", Values: []string{"SDSU"}}}
		case 4:
			svc.Name = rim.NewIString("servicio-añadir-数")
		}
		if strings.Contains(svc.Description.String(), "<constraint>") {
			constrained++
		}
		event := rim.NewAuditableEvent(rim.EventCreated, svc.Owner, time.Unix(1_700_000_000+int64(i), int64(i)).UTC(), svc.ID)
		for _, o := range []rim.Object{svc, event} {
			if _, ok := appendObject(nil, o); !ok {
				t.Errorf("no appender wrote %s %s", kindOf(o), marshal(t, o))
			}
			if err := s.Put(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if constrained < 150 || constrained == 200 {
		t.Fatalf("%d of 200 descriptions carry a constraint block, want about nine in ten", constrained)
	}
	frames, fallbacks := map[string]int{}, 0
	if _, err := ReadSnapshot(bytes.NewReader(saved(t, s)), func(kind string, body []byte) error {
		frames[kind]++
		if _, _, fast := scanObject(kind, body); !fast {
			fallbacks++
			t.Errorf("the scanner declined %s", body)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames["Service"] != 200 || frames["AuditableEvent"] != 200 || len(frames) != 2 || fallbacks != 0 {
		t.Fatalf("frames %v, %d fallbacks; want 200 of each class and 0", frames, fallbacks)
	}
}

// TestNullElementIsRejected: a checksum-valid frame or record may still say
// null where a nested object belongs. Decoded, that is a nil pointer the
// indexes and every Clone would dereference, so neither place that turns
// bytes into resident objects lets it in, and the store stays as it was.
func TestNullElementIsRejected(t *testing.T) {
	thesis := marshal(t, thesisService())
	for _, tc := range []struct{ name, old, new string }{
		{"Bindings", `"Bindings":[{`, `"Bindings":[null,{`},
		{"SpecificationLinks", `"SpecificationLinks":null`, `"SpecificationLinks":[null]`},
		{"Classifications", `"Classifications":null`, `"Classifications":[null]`},
		{"ExternalIdentifiers", `"ExternalIdentifiers":null`, `"ExternalIdentifiers":[null]`},
		{"a binding's Classifications", `"Classifications":null,"ExternalIdentifiers":null,"ServiceID"`, `"Classifications":[null],"ExternalIdentifiers":null,"ServiceID"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Contains(thesis, []byte(tc.old)) {
				t.Fatalf("the thesis service has no %s", tc.old)
			}
			body := bytes.Replace(thesis, []byte(tc.old), []byte(tc.new), 1)
			s := fixtureStore(t)
			before := saved(t, s)

			err := s.Load(bytes.NewReader(append(rawFrame("Service", body), trailer(1)...)))
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("Load = %v, want an ErrSnapshotCorrupt", err)
			}
			ok := thesisService()
			ok.ID = "urn:uuid:decodes-fine"
			doomed := s.ByType(rim.TypeService)[0].Base().ID
			err = s.ApplyEncoded([]Envelope{{Kind: "Service", Data: marshal(t, ok)}, {Kind: "Service", Data: body}},
				Change{Deletes: []string{doomed}, ContentPutID: "c-refused", Content: []byte("x")})
			if err == nil {
				t.Error("ApplyEncoded accepted a null element")
			}
			// And Admit, which stands where the decoder does for a live write.
			var refused rim.Service
			if json.Unmarshal(body, &refused) != nil {
				t.Fatal("the edited service no longer unmarshals")
			}
			if _, err := Admit(ok, &refused); err == nil {
				t.Error("Admit accepted a null element")
			}
			if !bytes.Equal(saved(t, s), before) {
				t.Error("the refused object, or the one beside it, changed the store")
			}
		})
	}
}

// TestDecodeSeedsAreTheCommittedCorpus: testdata/fuzz/FuzzDecodeObject is the
// table above written out a file per row, as the fuzz engine encodes a corpus
// entry, so that `go test -fuzz` starts from it. Kept twice, the two would
// drift: a row added or edited fails here until its file says the same.
func TestDecodeSeedsAreTheCommittedCorpus(t *testing.T) {
	for name, seed := range decodeSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n[]byte(%q)\n", seed.kind, seed.body)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeObject", name))
		if err != nil || string(got) != want {
			t.Errorf("corpus file %s (%v) is not the table's row; it should read\n%s", name, err, want)
		}
	}
}
