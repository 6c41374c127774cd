package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"repro/internal/rim"
	"repro/internal/store/storetest"
)

// fixtureStore is a small store with one of everything a snapshot frames:
// objects, an association (indexed twice), content and a NodeState row.
// Ids are fixed so the same bytes come out on every run.
func fixtureStore(tb testing.TB) *Store {
	tb.Helper()
	s := New()
	n := 0
	fix := func(b *rim.RegistryObject) {
		n++
		b.ID = fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-%012d", n)
		b.LID = b.ID
	}
	org := rim.NewOrganization("SDSU")
	fix(org.Base())
	svc := rim.NewService("NodeStatus", "load ls 1.0")
	fix(svc.Base())
	svc.AddBinding("http://thermo.sdsu.edu:8080/NodeStatus/NodeStatusService")
	for i := range svc.Bindings {
		fix(svc.Bindings[i].Base())
	}
	assoc := rim.NewAssociation(rim.AssocOffersService, org.ID, svc.ID)
	fix(assoc.Base())
	for _, o := range []rim.Object{org, svc, assoc} {
		if err := s.Put(o); err != nil {
			tb.Fatal(err)
		}
	}
	s.Apply(Change{ContentPutID: "c1", Content: []byte{0, 1, 2, 0xff}})
	s.NodeState().Upsert(NodeState{Host: "thermo.sdsu.edu", Load: 0.5, MemoryB: 1 << 30, Updated: time.Date(2011, 4, 22, 2, 0, 0, 0, time.UTC)})
	return s
}

func saved(tb testing.TB, s *Store) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// framed puts a correct length and checksum in front of any payload.
func framed(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

func rawFrame(kind string, body []byte) []byte {
	return framed(append(append([]byte{byte(len(kind))}, kind...), body...))
}

func trailer(count uint64) []byte {
	return rawFrame(kindEnd, binary.LittleEndian.AppendUint64(nil, count))
}

// damagedStreams are the ways a snapshot stream goes wrong, each built from
// the fixture's valid stream. They are asserted one by one in
// TestSnapshotLoadRejectsDamage and committed as the fuzzer's corpus.
func damagedStreams(tb testing.TB) map[string][]byte {
	valid := saved(tb, fixtureStore(tb))
	firstLen := int(binary.LittleEndian.Uint32(valid))
	body := valid[:len(valid)-len(trailer(0))] // every frame but the trailer
	flip := func(at int) []byte {
		out := append([]byte(nil), valid...)
		out[at] ^= 0x01
		return out
	}
	return map[string][]byte{
		"empty":               nil,
		"truncated-mid-frame": valid[:frameHeaderLen+firstLen/2],
		"flipped-crc":         flip(5),
		"flipped-payload":     flip(frameHeaderLen + firstLen/2),
		"bad-kind":            append(rawFrame("Martian", []byte("{}")), trailer(1)...),
		"kind-past-payload":   framed([]byte{200, 'x'}),
		"length-past-eof":     append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes), 0, 0, 0, 0, 1, 2, 3),
		"length-over-cap":     append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1), valid[4:]...),
		"zero-length":         make([]byte, frameHeaderLen),
		"missing-trailer":     body,
		"wrong-count":         append(append([]byte(nil), body...), trailer(99)...),
		"duplicate-object":    append(append(append([]byte(nil), valid[:frameHeaderLen+firstLen]...), body...), trailer(6)...),
		"object-without-id":   append(rawFrame("Service", []byte("{}")), trailer(1)...),
		"content-without-id":  append(rawFrame(kindContent, []byte{9, 'x'}), trailer(1)...),
		"format-1-json":       []byte(`{"objects":[{"kind":"Service","data":{}}]}`),
	}
}

// TestSnapshotLoadRejectsDamage: every damaged stream fails with
// ErrSnapshotCorrupt (or a decode error for a well-framed bad body) and
// leaves the target store exactly as it was.
func TestSnapshotLoadRejectsDamage(t *testing.T) {
	for name, data := range damagedStreams(t) {
		s := fixtureStore(t)
		s.Apply(Change{ContentPutID: "only-in-target", Content: []byte("kept")})
		before := saved(t, s)
		err := s.Load(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		switch name {
		case "bad-kind", "object-without-id":
		default:
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("%s: %v is not an ErrSnapshotCorrupt", name, err)
			}
		}
		if !bytes.Equal(saved(t, s), before) {
			t.Errorf("%s: the failed Load changed the store", name)
		}
	}
}

// TestSnapshotLoadBoundsAllocation: a frame header may claim 64 MiB; what
// Load allocates follows the bytes that actually arrive.
func TestSnapshotLoadBoundsAllocation(t *testing.T) {
	data := damagedStreams(t)["length-past-eof"]
	s := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Load(bytes.NewReader(data)); err == nil {
		t.Fatal("accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Load of a %d-byte stream claiming a %d-byte frame allocated %d bytes", len(data), MaxFrameBytes, grew)
	}
}

// TestSaveIsDeterministicAndCanonical: equal stores save to equal bytes,
// and a loaded stream saves back to itself — what lets recovery tests and
// replication convergence compare stores byte for byte.
func TestSaveIsDeterministicAndCanonical(t *testing.T) {
	a, b := saved(t, fixtureStore(t)), saved(t, fixtureStore(t))
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of equal stores differ")
	}
	s := New()
	st, err := s.LoadStats(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 5 || st.Objects != 3 || st.Bytes != int64(len(a)) {
		t.Fatalf("stats = %+v, want 5 frames, 3 objects, %d bytes", st, len(a))
	}
	if !bytes.Equal(saved(t, s), a) {
		t.Fatal("a loaded snapshot does not save back to the same bytes")
	}
}

// FuzzSnapshotLoad: on any input Load neither panics nor, when it fails,
// touches the target store; when it succeeds the store it built is one
// that Save and Load carry round unchanged. Save copies the frame bodies it
// loaded, so that alone would hold of whatever the decoder built: the store
// is also encoded afresh (saveReference), and both that stream and Save's
// must load into a store whose fresh encoding is the same bytes.
func FuzzSnapshotLoad(f *testing.F) {
	// The damaged streams are committed under testdata/fuzz; the valid one
	// is added here so that it follows the format.
	f.Add(saved(f, fixtureStore(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fixtureStore(t)
		before := saved(t, s)
		if err := s.Load(bytes.NewReader(data)); err != nil {
			if !bytes.Equal(saved(t, s), before) {
				t.Fatalf("failed Load (%v) changed the store", err)
			}
			return
		}
		after := saved(t, s)
		again := New()
		if err := again.Load(bytes.NewReader(after)); err != nil {
			t.Fatalf("store loaded from fuzz input saved to an unloadable stream: %v", err)
		}
		if !bytes.Equal(saved(t, again), after) {
			t.Fatal("store loaded from fuzz input does not round-trip")
		}
		if err := storetest.Reencodes(s, New, saveReference); err != nil {
			t.Fatal(err)
		}
	})
}
