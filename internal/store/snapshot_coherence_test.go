package store

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/rim"
)

// TestSaveCoherentUnderConcurrentWrites is the regression test for the
// snapshot-coherence fix: Save used to read the object table, the content
// map, and the NodeState rows under three separate lock acquisitions, so a
// snapshot taken during LCM writes could mix the object list of one
// instant with the content map of a later one.
//
// The writer maintains the invariant "an ExtrinsicObject is only ever
// present while its content is present" by writing content before the
// object and deleting the object before the content. Any point-in-time
// snapshot therefore satisfies: every ExtrinsicObject's ContentID resolves
// in the snapshot's content map. The old multi-section Save violated this
// (object captured early, content captured after the writer deleted both).
func TestSaveCoherentUnderConcurrentWrites(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eo := rim.NewExtrinsicObject("artifact", "text/xml")
			eo.ContentID = eo.ID
			s.Apply(Change{ContentPutID: eo.ContentID, Content: []byte("payload")})
			if err := s.Put(eo); err != nil {
				t.Error(err)
				return
			}
			s.Apply(Change{Deletes: []string{eo.ID}})
			s.Apply(Change{ContentDeleteID: eo.ContentID})
		}
	}()

	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got := New()
		if err := got.Load(&buf); err != nil {
			t.Fatal(err)
		}
		for _, o := range got.ByType(rim.TypeExtrinsicObject) {
			eo := o.(*rim.ExtrinsicObject)
			if _, err := got.GetContent(eo.ContentID); err != nil {
				t.Fatalf("snapshot %d has object %s without its content %s: mixed-state snapshot", i, eo.ID, eo.ContentID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadKeepsNodeStateTableIdentity pins the recovery-critical fix: Load
// must restore rows into the existing NodeStateTable rather than swapping
// in a new one, because the balancer and the collector capture the table
// pointer at construction.
func TestLoadKeepsNodeStateTableIdentity(t *testing.T) {
	src := New()
	src.NodeState().Upsert(NodeState{Host: "alpha", Load: 2.5})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New()
	table := dst.NodeState() // captured before Load, like the balancer does
	table.Upsert(NodeState{Host: "stale", Load: 9})
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.NodeState() != table {
		t.Fatal("Load replaced the NodeStateTable pointer")
	}
	if _, ok := table.Get("stale"); ok {
		t.Fatal("Load kept a pre-restore row")
	}
	row, ok := table.Get("alpha")
	if !ok || row.Load != 2.5 {
		t.Fatalf("restored row = %+v, %v", row, ok)
	}
}

// TestLoadRestoresNameIndex pins the byName-index fix: Load used to leave
// the name index pointing at pre-Load data, so FindOneByName missed every
// restored object.
func TestLoadRestoresNameIndex(t *testing.T) {
	src := New()
	svc := rim.NewService("Weather", "")
	if err := src.Put(svc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dst.FindOneByName(rim.TypeService, "Weather")
	if err != nil {
		t.Fatalf("FindOneByName after Load: %v", err)
	}
	if got.Base().ID != svc.ID {
		t.Fatalf("found %s, want %s", got.Base().ID, svc.ID)
	}
}
