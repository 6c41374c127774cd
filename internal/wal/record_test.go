package wal

// appendMutation writes the record, and every object in it, by hand. The
// log format is whatever json.Marshal(&walRecord) says it is, so the
// hand-written path is held to that expression byte for byte: a property
// test over generated mutations of every object kind, a differential fuzz
// target, and the benchmark the change is justified by.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/store"
)

// encodeMutationReference is the record as encoding/json writes it, objects
// included.
func encodeMutationReference(m lcm.Mutation) ([]byte, error) {
	rec := walRecord{
		Op:            m.Op,
		Deletes:       m.Deletes,
		ContentPut:    m.ContentPutID,
		Content:       m.Content,
		ContentDelete: m.ContentDeleteID,
	}
	for _, o := range m.Puts {
		data, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		rec.Puts = append(rec.Puts, store.Envelope{Kind: o.Base().ObjectType.Short(), Data: data})
	}
	return json.Marshal(&rec)
}

// awkward are the strings an id, name or op can be: empty, everything
// encoding/json escapes (quotes, backslash, controls, the HTML three,
// U+2028/9) and bytes that are not UTF-8.
var awkward = []string{
	"", "plain", "urn:uuid:00000000-0000-0000-0000-000000000000",
	`"quoted"`, `back\slash`, "tab\there", "nul\x00", "<script>&amp;</script>",
	"line sep ", "café", "\xff\xfe not utf-8", "trailing\\",
	"\"", "\\\"", "a\x7fb",
}

// objectOfKind builds one object of each of the 15 stored classes, named
// and identified by s.
func objectOfKind(kind int, s string) rim.Object {
	var o rim.Object
	switch kind % 15 {
	case 0:
		o = rim.NewOrganization(s)
	case 1:
		o = rim.NewUser(s, rim.PersonName{FirstName: s, LastName: "L"})
	case 2:
		svc := rim.NewService(s, s)
		svc.AddBinding("http://host-a:8080/" + s)
		svc.AddBinding("http://host-b:8080/x")
		o = svc
	case 3:
		o = rim.NewServiceBinding(s, "http://"+s)
	case 4:
		o = rim.NewSpecificationLink(s, s)
	case 5:
		o = rim.NewAssociation(rim.AssociationType(s), s, s)
	case 6:
		o = rim.NewExternalClassification(s, s, s)
	case 7:
		o = rim.NewClassificationScheme(s, true)
	case 8:
		o = rim.NewClassificationNode(s, s, s)
	case 9:
		o = rim.NewRegistryPackage(s)
	case 10:
		o = rim.NewExternalLink(s, s)
	case 11:
		o = rim.NewExternalIdentifier(s, s, s)
	case 12:
		o = rim.NewAuditableEvent(rim.EventType(s), s, time.Unix(1_700_000_000, 0).UTC(), s, "other")
	case 13:
		o = rim.NewAdhocQuery(s, "SQL-92", "SELECT * FROM Service WHERE name = '"+s+"'")
	default:
		o = rim.NewExtrinsicObject(s, "text/"+s)
	}
	o.Base().ID, o.Base().LID = s, s
	o.Base().Slots = []rim.Slot{{Name: s, Values: []string{s, "<v>"}}}
	return o
}

func assertEncodesLikeJSON(t *testing.T, m lcm.Mutation) {
	t.Helper()
	want, wantErr := encodeMutationReference(m)
	got, gotErr := appendMutation(nil, m)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("appendMutation error = %v, json.Marshal's = %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendMutation differs from json.Marshal(&walRecord)\n got: %s\nwant: %s", got, want)
	}
}

func TestEncodeMutationMatchesJSONMarshal(t *testing.T) {
	// Every kind with every awkward string, alone.
	for kind := 0; kind < 15; kind++ {
		for _, s := range awkward {
			assertEncodesLikeJSON(t, lcm.Mutation{Op: s, Puts: []rim.Object{objectOfKind(kind, s)}})
		}
	}
	// A kind that is not an identifier: the envelope's own string is escaped.
	odd := rim.NewService("odd", "")
	odd.ObjectType = `urn:x:<"Odd\Kind">`
	assertEncodesLikeJSON(t, lcm.Mutation{Op: "Submit", Puts: []rim.Object{odd}})

	// The shapes without objects: deletes only, content put and delete,
	// empty and nil slices (omitempty drops both), nothing at all.
	for _, m := range []lcm.Mutation{
		{},
		{Op: "Remove", Deletes: awkward},
		{Op: "Remove", Deletes: []string{}},
		{Op: "PutContent", ContentPutID: "c<1>", Content: []byte("\x00\xffbody")},
		{Op: "PutContent", ContentPutID: "c", Content: []byte{}},
		{Op: "DeleteContent", ContentDeleteID: `c"2"`},
		{Op: "Submit", Puts: []rim.Object{}},
	} {
		assertEncodesLikeJSON(t, m)
	}

	// Seeded mixtures of all of it.
	rng := rand.New(rand.NewSource(17))
	pick := func() string { return awkward[rng.Intn(len(awkward))] }
	for i := 0; i < 500; i++ {
		m := lcm.Mutation{Op: pick()}
		for n := rng.Intn(5); n > 0; n-- {
			m.Puts = append(m.Puts, objectOfKind(rng.Intn(15), pick()))
		}
		for n := rng.Intn(3); n > 0; n-- {
			m.Deletes = append(m.Deletes, pick())
		}
		if rng.Intn(3) == 0 {
			m.ContentPutID, m.Content = pick(), []byte(pick())
		}
		if rng.Intn(3) == 0 {
			m.ContentDeleteID = pick()
		}
		assertEncodesLikeJSON(t, m)
	}
}

// FuzzEncodeMutation: whatever strings and bytes a mutation carries, the
// hand-written envelope is json.Marshal's, and it replays.
func FuzzEncodeMutation(f *testing.F) {
	f.Add("Submit", "urn:uuid:1", []byte("body"), uint8(2), uint8(3))
	f.Add("", "", []byte(nil), uint8(0), uint8(0))
	f.Add(`op"\`, "<id>& ", []byte{0xff, 0x00}, uint8(12), uint8(1))
	f.Add("Remove", "\xff\xfe", []byte("x"), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, op, id string, content []byte, kind, puts uint8) {
		m := lcm.Mutation{Op: op, Content: content}
		for i := 0; i < int(puts%4); i++ {
			m.Puts = append(m.Puts, objectOfKind(int(kind)+i, fmt.Sprintf("%s-%d", id, i)))
		}
		if kind%2 == 0 {
			m.Deletes = []string{id, op}
		}
		if kind%3 == 0 {
			m.ContentPutID = id
		}
		if kind%5 == 0 {
			m.ContentDeleteID = id
		}
		assertEncodesLikeJSON(t, m)
	})
}

// benchMutation is what one publish logs: a four-binding service and the
// audit event beside it.
func benchMutation() lcm.Mutation {
	svc := rim.NewService("BenchService", "a service with four bindings")
	for i := 0; i < 4; i++ {
		svc.AddBinding(fmt.Sprintf("http://host-%d.example.org:8080/BenchService/run", i))
	}
	svc.Slots = []rim.Slot{{Name: "constraint", Values: []string{"load < 2.0 and memory > 512"}}}
	ev := rim.NewAuditableEvent(rim.EventCreated, "urn:uuid:user", time.Unix(1_700_000_000, 0).UTC(), svc.ID)
	return lcm.Mutation{Op: string(rim.EventCreated), Puts: []rim.Object{svc, ev}}
}

func BenchmarkEncodeMutation(b *testing.B) {
	m := benchMutation()
	for _, enc := range []struct {
		name string
		fn   func(lcm.Mutation) ([]byte, error)
	}{{"appended", func(m lcm.Mutation) ([]byte, error) { return appendMutation(nil, m) }}, {"json.Marshal", encodeMutationReference}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := enc.fn(m)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
}

// publishMutation is what one publish on the benchmark's population logs: a
// service whose description carries a constraint block, its bindings named
// after their URIs, and the audit event beside it.
func publishMutation(bindings int) lcm.Mutation {
	svc := rim.NewService("svc-00001", "benchmark service svc-00001 <constraint><cpuLoad>load ls 1.5</cpuLoad><memory>memory gr 2GB</memory></constraint>")
	svc.Owner = "urn:uuid:00000000-0000-4000-8000-00000000cafe"
	for i := 0; i < bindings; i++ {
		svc.AddBinding(fmt.Sprintf("http://127.0.1.%d:8080/svc-00001/run", 1+i)).Owner = svc.Owner
	}
	ev := rim.NewAuditableEvent(rim.EventCreated, svc.Owner, time.Unix(1_700_000_000, 0).UTC(), svc.ID)
	return lcm.Mutation{Op: string(rim.EventCreated), Puts: []rim.Object{svc, ev}}
}

// BenchmarkApplyRecord is a record becoming stored objects: WAL replay at
// boot and every record a follower is shipped.
func BenchmarkApplyRecord(b *testing.B) {
	for _, bindings := range []int{4, 32} {
		b.Run(fmt.Sprint(bindings), func(b *testing.B) {
			payload, err := appendMutation(nil, publishMutation(bindings))
			if err != nil {
				b.Fatal(err)
			}
			s := store.New()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ApplyRecord(s, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
