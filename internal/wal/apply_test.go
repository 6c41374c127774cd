package wal

// ApplyRecord scans the envelope appendMutation writes and leaves every
// other shape to json.Unmarshal(&walRecord), which is also what it is held
// to: a table of the shapes that matter, a differential fuzz target over
// the same table, and a guard that what this package writes is what the
// scanner takes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// applyReference is ApplyRecord without the scanner.
func applyReference(s *store.Store, payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	return rec.apply(s)
}

// fixedService is a service of the benchmark population's shape under ids
// that do not change from run to run.
func fixedService(n, bindings int) *rim.Service {
	name := fmt.Sprintf("svc-%05d", n)
	description := "benchmark service " + name
	if n%10 != 0 {
		description += " <constraint><cpuLoad>load ls 1.5</cpuLoad><memory>memory gr 2GB</memory></constraint>"
	}
	svc := rim.NewService(name, description)
	svc.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-%012d", n*100)
	svc.LID = svc.ID
	svc.Owner = "urn:uuid:00000000-0000-4000-8000-00000000cafe"
	for i := 0; i < bindings; i++ {
		b := svc.AddBinding(fmt.Sprintf("http://127.0.1.%d:8080/%s/run", 1+i, name))
		b.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-%012d", n*100+i+1)
		b.LID, b.Owner = b.ID, svc.Owner
	}
	return svc
}

func fixedEvent(kind rim.EventType, n int, affected ...string) *rim.AuditableEvent {
	ev := rim.NewAuditableEvent(kind, "urn:uuid:00000000-0000-4000-8000-00000000cafe", time.Unix(1_700_000_000, 0).UTC(), affected...)
	ev.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-%012d", n*100+99)
	ev.LID = ev.ID
	return ev
}

// applyFixture is the store every seed is applied to: services 1 and 2, and
// a content item, for deletes and overwrites to find.
func applyFixture(tb testing.TB) *store.Store {
	tb.Helper()
	s := store.New()
	for n := 1; n <= 2; n++ {
		if err := s.Put(fixedService(n, 2)); err != nil {
			tb.Fatal(err)
		}
	}
	s.Apply(store.Change{ContentPutID: "c1", Content: []byte("old")})
	return s
}

type recordSeed struct {
	payload []byte
	scanned bool // the envelope scanner must take it; else it must not
	applies bool // the record applies; else it fails and changes nothing
}

// recordSeeds are the payloads the scanner has to get right or has to leave
// alone, by name; testdata/fuzz/FuzzApplyRecord is the same rows as corpus
// files (TestRecordSeedsAreTheCommittedCorpus).
func recordSeeds(tb testing.TB) map[string]recordSeed {
	encode := func(m lcm.Mutation) []byte {
		tb.Helper()
		b, err := encodeMutation(m)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	svc3, svc1 := fixedService(3, 4), fixedService(1, 3)
	svc1.Slots = []rim.Slot{{Name: "copyright", Values: []string{"SDSU <2011>"}}}
	submit := encode(mutation("Created", svc3, fixedEvent(rim.EventCreated, 3, svc3.ID)))
	edit := func(old, new string) []byte {
		if !bytes.Contains(submit, []byte(old)) {
			tb.Fatalf("the submit record has no %s to edit", old)
		}
		return bytes.Replace(submit, []byte(old), []byte(new), 1)
	}
	noID := fixedService(4, 1)
	noID.ID = ""
	var indented bytes.Buffer
	if err := json.Indent(&indented, submit, "", " "); err != nil {
		tb.Fatal(err)
	}
	var fields map[string]json.RawMessage
	everything := mutation(`Up"dated<`, svc1)
	everything.Deletes = []string{fixedService(2, 0).ID, "urn:uuid:absent", "a\x00<b>\xff"}
	everything.ContentPutID, everything.Content, everything.ContentDeleteID = "c<2>", []byte("\x00\xffbody"), "c1"
	everythingRecord := encode(everything)
	if err := json.Unmarshal(everythingRecord, &fields); err != nil {
		tb.Fatal(err)
	}
	reversed := []byte("{")
	for i, k := range []string{"contentDelete", "content", "contentPut", "deletes", "puts", "op"} {
		if i > 0 {
			reversed = append(reversed, ',')
		}
		reversed = append(append(append(reversed, '"'), k...), '"', ':')
		reversed = append(reversed, fields[k]...)
	}
	reversed = append(reversed, '}')

	return map[string]recordSeed{
		"submit":                {submit, true, true},
		"update-with-slot":      {encode(mutation("Updated", svc1, fixedEvent(rim.EventUpdated, 1, svc1.ID))), true, true},
		"every-kind":            {encode(mutation("PutDirect", objectOfKind(0, "urn:o"), objectOfKind(1, "urn:u"), objectOfKind(5, "urn:a"), objectOfKind(14, "urn:x"))), true, true},
		"deletes-only":          {encode(lcm.Mutation{Op: "Deleted", Change: store.Change{Deletes: []string{fixedService(1, 0).ID}}}), true, true},
		"content-only":          {encode(lcm.Mutation{Op: "PutContent", Change: store.Change{ContentPutID: "c2", Content: []byte{0, 1, 2, 0xff}}}), true, true},
		"content-empty":         {encode(lcm.Mutation{Op: "PutContent", Change: store.Change{ContentPutID: "c2", Content: []byte{}}}), true, true},
		"content-delete":        {encode(lcm.Mutation{Op: "DeleteContent", Change: store.Change{ContentDeleteID: "c1"}}), true, true},
		"everything":            {everythingRecord, true, true},
		"keys-reversed":         {reversed, true, true},
		"op-only":               {[]byte(`{"op":"Noop"}`), true, true},
		"empty-object":          {[]byte(`{}`), true, true},
		"base64-line-break":     {[]byte(`{"op":"PutContent","contentPut":"c2","content":"AAEC\n\/w=="}`), true, true},
		"null-binding":          {edit(`"Bindings":[{`, `"Bindings":[null,{`), true, false},
		"null-classification":   {edit(`"Classifications":null`, `"Classifications":[null]`), true, false},
		"second-put-undecoded":  {edit(`"Timestamp":"2023`, `"Timestamp":"yesterday 2023`), true, false},
		"put-without-id":        {encode(mutation("Created", fixedService(5, 1), noID)), true, false},
		"unknown-kind":          {edit(`"kind":"Service"`, `"kind":"Martian"`), true, false},
		"data-malformed":        {edit(`"data":{"ID":`, `"data":{"ID" `), true, false},
		"data-unbalanced":       {[]byte(`{"op":"Created","puts":[{"kind":"Service","data":{"a":[}]}]}`), true, false},
		"data-not-an-object":    {[]byte(`{"op":"Created","puts":[{"kind":"Service","data":7}]}`), false, false},
		"data-missing":          {[]byte(`{"op":"Created","puts":[{"kind":"Service"}]}`), true, false},
		"puts-null":             {[]byte(`{"op":"Created","puts":null,"deletes":null}`), false, true},
		"puts-empty":            {[]byte(`{"op":"Created","puts":[],"deletes":[]}`), false, true},
		"duplicate-key":         {[]byte(`{"op":"a","deletes":["` + fixedService(1, 0).ID + `"],"deletes":[]}`), false, true},
		"duplicate-kind":        {edit(`"kind":"Service"`, `"kind":"Martian","kind":"Service"`), false, true},
		"case-variant-key":      {[]byte(`{"Op":"Deleted","DELETES":["` + fixedService(1, 0).ID + `"]}`), false, true},
		"unknown-key":           {[]byte(`{"op":"Deleted","flavour":[1,{"a":null}],"deletes":["` + fixedService(1, 0).ID + `"]}`), false, true},
		"content-bad-base64":    {[]byte(`{"op":"PutContent","contentPut":"c2","content":"!!"}`), false, false},
		"content-as-numbers":    {[]byte(`{"op":"PutContent","contentPut":"c2","content":[1,2]}`), false, true},
		"content-not-bytes":     {[]byte(`{"op":"PutContent","contentPut":"c2","content":{}}`), false, false},
		"delete-not-a-string":   {[]byte(`{"op":"Deleted","deletes":[7]}`), false, false},
		"whitespace":            {indented.Bytes(), false, true},
		"trailing-newline":      {append(append([]byte(nil), submit...), '\n'), false, true},
		"trailing-bytes":        {append(append([]byte(nil), submit...), '{', '}'), false, false},
		"truncated":             {submit[:len(submit)/2], false, false},
		"truncated-in-a-string": {[]byte(`{"op":"Dele`), false, false},
		"array":                 {[]byte(`["op"]`), false, false},
		"empty":                 {nil, false, false},
	}
}

// checkAppliesLikeJSON holds ApplyRecord to the reference on one payload
// and returns whether the envelope scanner took it and whether it applied.
func checkAppliesLikeJSON(t *testing.T, payload []byte) (scanned, applied bool) {
	t.Helper()
	var fast, slow walRecord
	scanned = scanRecord(payload, &fast)
	slowErr := json.Unmarshal(payload, &slow)
	if scanned && slowErr == nil && !reflect.DeepEqual(fast, slow) {
		t.Fatalf("scanRecord differs from json.Unmarshal\n got: %+v\nwant: %+v", fast, slow)
	}

	viaScan, viaJSON := applyFixture(t), applyFixture(t)
	before := saveBytes(t, viaScan)
	_, err := ApplyRecord(viaScan, payload)
	refErr := applyReference(viaJSON, payload)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("ApplyRecord error = %v, the reference's = %v", err, refErr)
	}
	after := saveBytes(t, viaScan)
	if !bytes.Equal(after, saveBytes(t, viaJSON)) {
		t.Fatal("ApplyRecord and the reference leave different stores")
	}
	if err != nil && !bytes.Equal(after, before) {
		t.Fatalf("a record that failed (%v) changed the store", err)
	}
	// The store saves the objects' JSON as the record carried it, which
	// both paths keep alike; encoded afresh, what they decoded must still
	// carry round.
	if err := storetest.Reencodes(viaScan, store.New, storetest.SaveReference[*store.Store]); err != nil {
		t.Fatal(err)
	}
	return scanned, err == nil
}

func TestApplyRecordMatchesJSON(t *testing.T) {
	for name, seed := range recordSeeds(t) {
		name, seed := name, seed
		t.Run(name, func(t *testing.T) {
			scanned, applied := checkAppliesLikeJSON(t, seed.payload)
			if scanned != seed.scanned || applied != seed.applies {
				t.Fatalf("scanned = %v, applied = %v; want %v, %v", scanned, applied, seed.scanned, seed.applies)
			}
		})
	}
}

// FuzzApplyRecord: on any payload, applying it scanned and applying it
// through json.Unmarshal(&walRecord) leave two stores that save to the same
// bytes, or both fail and leave the store alone; neither panics; and the
// store, encoded afresh, loads back to the same fresh encoding.
func FuzzApplyRecord(f *testing.F) {
	f.Add([]byte(`{"op":"Deleted","deletes":["urn:uuid:00000000-0000-4000-8000-000000000100"]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkAppliesLikeJSON(t, payload)
	})
}

// TestFastPathTakesThePopulation: every record a registry logs over a
// population shaped like the benchmark's — submits, updates, status
// changes, removals, content — has the envelope the scanner takes. One that
// did not would cost that record the whole gain and fail no other test.
func TestFastPathTakesThePopulation(t *testing.T) {
	dir := t.TempDir()
	clk := simclock.NewManual(time.Unix(1_700_000_000, 0))
	s := store.New()
	d, err := OpenDurable(dir, s, DurableOptions{Log: Options{Fsync: FsyncNever, Clock: clk}, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.WAL().Close()
	mgr, ctx := newTestManager(s, clk, d)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 60; n++ {
		svc := fixedService(n, 1+n%8)
		switch n {
		case 3:
			svc.Slots = []rim.Slot{{Name: "copyright", Values: []string{"SDSU"}}}
		case 4:
			svc.Name = rim.NewIString("servicio-añadir-数")
		}
		must(mgr.SubmitObjects(ctx, svc))
		switch n % 6 {
		case 1:
			svc.Description = rim.NewIString(strings.Replace(svc.Description.String(), "load ls 1.5", "load ls 0.5", 1))
			must(mgr.UpdateObjects(ctx, svc))
		case 2:
			must(mgr.ApproveObjects(ctx, svc.ID))
		case 3:
			must(mgr.RemoveObjects(ctx, svc.ID))
		case 4:
			must(mgr.PutContent(svc.ID+":wsdl", []byte("<definitions/>\x00\xff")))
		}
	}
	must(mgr.PutDirect(rim.NewUser("operator", rim.PersonName{FirstName: "Reg", LastName: "Istrar"})))
	must(mgr.DeleteContent(fixedService(4, 0).ID + ":wsdl"))

	records, fallbacks := 0, 0
	replayed := store.New()
	must(d.WAL().Replay(Position{}, func(_ Position, payload []byte) error {
		records++
		var rec walRecord
		if !scanRecord(payload, &rec) {
			fallbacks++
			t.Errorf("the scanner declined %s", payload)
		}
		return applyRecord(replayed, payload)
	}))
	if records < 100 || fallbacks != 0 {
		t.Fatalf("%d records, %d fallbacks; want at least 100 and 0", records, fallbacks)
	}
	if !bytes.Equal(saveBytes(t, replayed), saveBytes(t, s)) {
		t.Fatal("the replayed log does not reproduce the store that wrote it")
	}
}

// TestRecordSeedsAreTheCommittedCorpus: testdata/fuzz/FuzzApplyRecord is the
// table above written out a file per row, as the fuzz engine encodes a corpus
// entry, so that `go test -fuzz` starts from it. Kept twice, the two would
// drift: a row added or edited fails here until its file says the same.
func TestRecordSeedsAreTheCommittedCorpus(t *testing.T) {
	for name, seed := range recordSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.payload)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzApplyRecord", name))
		if err != nil || string(got) != want {
			t.Errorf("corpus file %s (%v) is not the table's row; it should read\n%s", name, err, want)
		}
	}
}
