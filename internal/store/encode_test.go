package store

// The appenders of encode.go write the stored bytes of a Service, its
// bindings and links, and an AuditableEvent by hand. The format is whatever
// json.Marshal writes, so they are held to it byte for byte and error for
// error: a table of the values that matter, a differential fuzz target over
// the same table, a guard that what a registry stores really takes them, and
// a whole checkpoint compared with one framed by encoding/json.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/rim"
)

// fuzzObject's classes, in the order its class argument picks them.
var fuzzClasses = []string{"Service", "ServiceBinding", "SpecificationLink", "AuditableEvent", "Organization"}

// Bits of fuzzObject's extras.
const (
	withSlots           = 1 << iota // slots on the object and on a binding
	withClassifications             // a classification, carrying slots of its own
	withIdentifiers                 // an external identifier
	withLinks                       // a specification link on each binding
	withEmptySlices                 // every nil slice made empty: [] where null was
	withNilElement                  // a null among the classifications and bindings
)

// fuzzObject builds the object FuzzEncodeObject encodes: one of fuzzClasses
// with text in every string a publisher controls, a Service with up to 32
// bindings numbered as the benchmark numbers them, an event stamped sec and
// nsec after the epoch at a zone offset of zone seconds.
func fuzzObject(class, bindings, extras uint8, text string, sec, nsec, zone int64) rim.Object {
	base := func(r *rim.RegistryObject, id string) {
		r.ID, r.LID = "urn:uuid:"+id, "urn:uuid:"+id
		r.Owner = "urn:uuid:00000000-0000-4000-8000-00000000cafe"
		r.Home = text
		if extras&withSlots != 0 {
			r.Slots = []rim.Slot{{Name: text, SlotType: "text", Values: []string{text, "<v>"}}, {Name: "none"}}
		}
		if extras&withClassifications != 0 {
			c := rim.NewExternalClassification(r.ID, "urn:scheme", text)
			c.ID, c.LID = r.ID+":class", r.ID+":class"
			c.Slots = []rim.Slot{{Name: "nested", Values: []string{text}}}
			r.Classifications = []*rim.Classification{c}
		}
		if extras&withIdentifiers != 0 {
			e := rim.NewExternalIdentifier(r.ID, "urn:duns", text)
			e.ID, e.LID = r.ID+":duns", r.ID+":duns"
			r.ExternalIdentifiers = []*rim.ExternalIdentifier{e}
		}
		if extras&withEmptySlices != 0 {
			if r.Slots == nil {
				r.Slots = []rim.Slot{{Name: "empty", Values: []string{}}}
			}
			if r.Classifications == nil {
				r.Classifications = []*rim.Classification{}
			}
			if r.ExternalIdentifiers == nil {
				r.ExternalIdentifiers = []*rim.ExternalIdentifier{}
			}
			if r.Description.Localized == nil {
				r.Description.Localized = []rim.LocalizedString{}
			}
		}
		if extras&withNilElement != 0 {
			r.Classifications = append(r.Classifications, nil)
		}
	}
	link := func(bindingID string) *rim.SpecificationLink {
		l := rim.NewSpecificationLink(bindingID, "urn:uuid:wsdl")
		base(&l.RegistryObject, "link-"+bindingID)
		l.UsageDescription = rim.NewIString(text)
		l.UsageParameters = []string{text}
		if extras&withEmptySlices != 0 {
			l.UsageParameters = []string{}
		}
		return l
	}
	binding := func(serviceID string, j int) *rim.ServiceBinding {
		b := rim.NewServiceBinding(serviceID, fmt.Sprintf("http://127.0.%d.%d:8080/%s/run", 1+j/250, 1+j%250, text))
		base(&b.RegistryObject, fmt.Sprintf("binding-%d", j))
		b.TargetBindingID = text
		if extras&withLinks != 0 {
			b.SpecificationLinks = []*rim.SpecificationLink{link(b.ID)}
		} else if extras&withEmptySlices != 0 {
			b.SpecificationLinks = []*rim.SpecificationLink{}
		}
		return b
	}
	switch class % uint8(len(fuzzClasses)) {
	case 0:
		svc := rim.NewService(text, text)
		base(&svc.RegistryObject, "service")
		for j := 0; j < int(bindings%33); j++ {
			svc.Bindings = append(svc.Bindings, binding(svc.ID, j))
		}
		if extras&withEmptySlices != 0 && svc.Bindings == nil {
			svc.Bindings = []*rim.ServiceBinding{}
		}
		if extras&withNilElement != 0 {
			svc.Bindings = append(svc.Bindings, nil)
		}
		return svc
	case 1:
		return binding("urn:uuid:service", int(bindings))
	case 2:
		return link("urn:uuid:binding")
	case 3:
		loc := time.UTC
		if zone != 0 {
			loc = time.FixedZone("", int(zone%(200*3600)))
		}
		e := rim.NewAuditableEvent(rim.EventType(text), "urn:uuid:user", time.Unix(sec, nsec).In(loc), "urn:uuid:service", text)
		base(&e.RegistryObject, "event")
		e.RequestID = text
		if extras&withEmptySlices != 0 {
			e.AffectedIDs = []string{}
		}
		return e
	default:
		org := rim.NewOrganization(text)
		base(&org.RegistryObject, "organization")
		return org
	}
}

// checkEncodesLikeJSON holds appendObject and AppendEnvelope to json.Marshal
// on one object and returns whether an appender wrote it.
func checkEncodesLikeJSON(t *testing.T, o rim.Object) (fast bool) {
	t.Helper()
	want, wantErr := json.Marshal(o)
	const prefix = "prefix"
	got, fast := appendObject([]byte(prefix), o)
	switch {
	case fast && wantErr != nil:
		t.Fatalf("an appender wrote %s where json.Marshal fails: %v", got, wantErr)
	case fast && !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("appendObject differs from json.Marshal\n got: %s\nwant: %s", got[len(prefix):], want)
	case !fast && string(got) != prefix:
		t.Fatalf("a declined append left %q behind", got)
	}
	env, err := AppendEnvelope([]byte(prefix), o)
	if wantErr != nil {
		if wantEnvErr := fmt.Sprintf("store: marshal %s: %v", o.Base().ID, wantErr); err == nil || err.Error() != wantEnvErr {
			t.Fatalf("AppendEnvelope error = %v, want %s", err, wantEnvErr)
		}
		if string(env) != prefix {
			t.Fatalf("a failed AppendEnvelope left %q behind", env)
		}
		return fast
	}
	wantEnv, err2 := json.Marshal(Envelope{Kind: kindOf(o), Data: want})
	if err != nil || err2 != nil {
		t.Fatalf("AppendEnvelope error = %v, json.Marshal's = %v", err, err2)
	}
	if !bytes.Equal(env[len(prefix):], wantEnv) {
		t.Fatalf("AppendEnvelope differs from json.Marshal\n got: %s\nwant: %s", env[len(prefix):], wantEnv)
	}
	return fast
}

// encodeSeed is one input of the differential check: fuzzObject's
// arguments, and whether an appender must write the object.
type encodeSeed struct {
	class, bindings, extras uint8
	text                    string
	sec, nsec, zone         int64
	fast                    bool
}

// benchText is a description as the benchmark's population carries it,
// constraint block and all.
const benchText = "benchmark service svc-00001 <constraint><cpuLoad>load ls 1.5</cpuLoad><memory>memory gr 2GB</memory></constraint>"

// encodeSeeds are the values the appenders have to get right, by name;
// testdata/fuzz/FuzzEncodeObject is the same rows as corpus files
// (TestEncodeSeedsAreTheCommittedCorpus).
func encodeSeeds() map[string]encodeSeed {
	const stamp = 1_700_000_000
	everything := uint8(withSlots | withClassifications | withIdentifiers | withLinks)
	return map[string]encodeSeed{
		"bench-service":           {class: 0, bindings: 8, text: benchText, fast: true},
		"bench-service-32":        {class: 0, bindings: 32, text: benchText, fast: true},
		"bench-event":             {class: 3, text: "Created", sec: stamp, fast: true},
		"non-ascii":               {class: 0, bindings: 2, text: "Añadir-数-Ω-😀", fast: true},
		"invalid-utf8":            {class: 0, bindings: 1, text: "bad \xff\xfe utf-8 \xc3", fast: true},
		"line-separators":         {class: 3, text: "ls \u2028 ps \u2029", sec: stamp, fast: true},
		"html":                    {class: 2, text: "<a href='x'>&amp;</a>", fast: true},
		"control-bytes":           {class: 1, bindings: 3, extras: withLinks, text: "nul\x00 bs\b ff\f nl\n cr\r tab\t esc\x1b del\x7f quote\" back\\", fast: true},
		"slots-classes-ids":       {class: 0, bindings: 2, extras: everything, text: "SDSU <2011>", fast: true},
		"empty-slices":            {class: 0, extras: withEmptySlices, fast: true},
		"empty-slices-binding":    {class: 1, extras: withEmptySlices | withSlots, text: "b", fast: true},
		"empty-slices-link":       {class: 2, extras: withEmptySlices, fast: true},
		"empty-slices-event":      {class: 3, extras: withEmptySlices, sec: stamp, fast: true},
		"nil-elements":            {class: 0, bindings: 2, extras: withNilElement, text: "x", fast: true},
		"event-nanoseconds":       {class: 3, text: "Updated", sec: stamp, nsec: 123_456_780, fast: true},
		"event-non-utc":           {class: 3, text: "Approved", sec: stamp, nsec: 5, zone: -(7*3600 + 30*60), fast: true},
		"event-zone-past-24h":     {class: 3, text: "Deleted", sec: stamp, zone: 24 * 3600},
		"event-year-10000":        {class: 3, text: "Versioned", sec: 253_402_300_800},
		"event-year-minus-1":      {class: 3, text: "Versioned", sec: -62_198_755_200},
		"event-year-0":            {class: 3, text: "Relocated", sec: -62_167_219_200, fast: true},
		"event-every-part":        {class: 3, extras: everything, text: "<Created>", sec: stamp, zone: 3600, fast: true},
		"fallback-organization":   {class: 4, extras: everything, text: "SDSU & <friends>"},
		"fallback-empty-text":     {class: 4},
		"service-no-bindings-nil": {class: 0, text: "", fast: true},
	}
}

func TestEncodeObjectMatchesJSON(t *testing.T) {
	for name, seed := range encodeSeeds() {
		seed := seed
		t.Run(name, func(t *testing.T) {
			o := fuzzObject(seed.class, seed.bindings, seed.extras, seed.text, seed.sec, seed.nsec, seed.zone)
			if fast := checkEncodesLikeJSON(t, o); fast != seed.fast {
				t.Fatalf("an appender wrote the object = %v, want %v", fast, seed.fast)
			}
		})
	}
}

// FuzzEncodeObject: on any class, text, binding count and timestamp, the
// appenders write json.Marshal's bytes or decline where it fails, and the
// envelope around them is json.Marshal's too, error included.
func FuzzEncodeObject(f *testing.F) {
	f.Fuzz(func(t *testing.T, class, bindings, extras uint8, text string, sec, nsec, zone int64) {
		checkEncodesLikeJSON(t, fuzzObject(class, bindings, extras, text, sec, nsec, zone))
	})
}

// TestEncodeSeedsAreTheCommittedCorpus: testdata/fuzz/FuzzEncodeObject is the
// table above written out a file per row, as the fuzz engine encodes a corpus
// entry, so that `go test -fuzz` starts from it.
func TestEncodeSeedsAreTheCommittedCorpus(t *testing.T) {
	for name, seed := range encodeSeeds() {
		want := fmt.Sprintf("go test fuzz v1\nbyte(%q)\nbyte(%q)\nbyte(%q)\nstring(%q)\nint64(%d)\nint64(%d)\nint64(%d)\n",
			seed.class, seed.bindings, seed.extras, seed.text, seed.sec, seed.nsec, seed.zone)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzEncodeObject", name))
		if err != nil || string(got) != want {
			t.Errorf("corpus file %s (%v) is not the table's row; it should read\n%s", name, err, want)
		}
	}
}

// everyClass returns one object of each of the 15 stored classes, its
// strings built from text and its ids from n.
func everyClass(text string, n int) []rim.Object {
	svc := rim.NewService(text, benchText)
	for j := 0; j < 3; j++ {
		svc.AddBinding(fmt.Sprintf("http://h%d.sdsu.edu:8080/%s", j, text))
	}
	svc.Bindings[1].SpecificationLinks = []*rim.SpecificationLink{rim.NewSpecificationLink(svc.Bindings[1].ID, "urn:uuid:wsdl")}
	event := rim.NewAuditableEvent(rim.EventCreated, "urn:uuid:user", time.Date(2011, 4, 22, 2, 0, 0, n, time.FixedZone("PDT", -7*3600)), svc.ID)
	objs := []rim.Object{
		rim.NewOrganization(text),
		rim.NewUser(text, rim.PersonName{FirstName: text, LastName: "L"}),
		svc,
		rim.NewServiceBinding(svc.ID, "http://"+text),
		rim.NewSpecificationLink(svc.Bindings[0].ID, text),
		rim.NewAssociation(rim.AssocOffersService, text, svc.ID),
		rim.NewExternalClassification(svc.ID, "urn:scheme", text),
		rim.NewClassificationScheme(text, true),
		rim.NewClassificationNode(text, text, text),
		rim.NewRegistryPackage(text),
		rim.NewExternalLink(text, "http://"+text),
		rim.NewExternalIdentifier(svc.ID, "urn:duns", text),
		event,
		rim.NewAdhocQuery(text, "SQL-92", "SELECT * FROM Service WHERE name = '"+text+"'"),
		rim.NewExtrinsicObject(text, "text/xml"),
	}
	for i, o := range objs {
		r := o.Base()
		r.ID = fmt.Sprintf("urn:uuid:%02d-%d", i, n)
		r.LID = r.ID
		r.Slots = []rim.Slot{{Name: text, Values: []string{text, "<v>"}}}
		r.ExternalIdentifiers = []*rim.ExternalIdentifier{rim.NewExternalIdentifier(r.ID, "urn:scheme", text)}
	}
	return objs
}

// TestSaveMatchesTheEncoderFrames: a store holding every class twice, over
// plain and awkward strings, with content and NodeState rows, saves to the
// same bytes as through the json.Encoder frame writer Save used before it
// had appenders.
func TestSaveMatchesTheEncoderFrames(t *testing.T) {
	s := New()
	for n, text := range []string{"plain", "<a href='x'>&amp;</a> \u2028 数 \xff nul\x00"} {
		for _, o := range everyClass(text, n) {
			if err := s.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		s.Apply(Change{ContentPutID: fmt.Sprintf("urn:content:%d", n), Content: []byte(text)})
		s.nodeState.Upsert(NodeState{Host: text, Load: 0.5, Updated: time.Date(2011, 4, 22, 2, 0, 0, 0, time.UTC)})
	}
	var ref bytes.Buffer
	if err := saveReference(s, &ref); err != nil {
		t.Fatal(err)
	}
	if got := saved(t, s); !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("Save writes %d bytes, the encoder frames %d; they differ", len(got), ref.Len())
	}
}

// saveReference and referenceFrameWriter are Save and its frameWriter as they
// were with encoding/json as the only encoder of an object frame.
func saveReference(s *Store, w io.Writer) error {
	s.mu.RLock()
	objs := make([]rim.Object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	type item struct {
		id   string
		data []byte
	}
	content := make([]item, 0, len(s.content))
	for id, data := range s.content {
		content = append(content, item{id, data})
	}
	rows := s.nodeState.Rows()
	s.mu.RUnlock()

	sortByID(objs)
	sort.Slice(content, func(i, j int) bool { return content[i].id < content[j].id })
	fw := newReferenceFrameWriter(w)
	for _, o := range objs {
		if err := fw.json(kindOf(o), o); err != nil {
			return err
		}
	}
	for _, c := range content {
		fw.begin(kindContent)
		fw.buf.Write(binary.AppendUvarint(nil, uint64(len(c.id))))
		fw.buf.WriteString(c.id)
		fw.buf.Write(c.data)
		if err := fw.end(); err != nil {
			return err
		}
	}
	for i := range rows {
		if err := fw.json(kindNodeState, &rows[i]); err != nil {
			return err
		}
	}
	count := fw.frames
	fw.begin(kindEnd)
	fw.buf.Write(binary.LittleEndian.AppendUint64(nil, count))
	if err := fw.end(); err != nil {
		return err
	}
	return fw.w.Flush()
}

type referenceFrameWriter struct {
	w      *bufio.Writer
	buf    bytes.Buffer
	enc    *json.Encoder
	frames uint64
}

func newReferenceFrameWriter(w io.Writer) *referenceFrameWriter {
	fw := &referenceFrameWriter{w: bufio.NewWriterSize(w, 256<<10)}
	fw.enc = json.NewEncoder(&fw.buf)
	return fw
}

func (fw *referenceFrameWriter) begin(kind string) {
	var gap [frameHeaderLen]byte
	fw.buf.Reset()
	fw.buf.Write(gap[:])
	fw.buf.WriteByte(byte(len(kind)))
	fw.buf.WriteString(kind)
}

func (fw *referenceFrameWriter) end() error {
	b := fw.buf.Bytes()
	payload := b[frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	fw.frames++
	_, err := fw.w.Write(b)
	return err
}

func (fw *referenceFrameWriter) json(kind string, v any) error {
	fw.begin(kind)
	if err := fw.enc.Encode(v); err != nil {
		return err
	}
	fw.buf.Truncate(fw.buf.Len() - 1)
	return fw.end()
}
