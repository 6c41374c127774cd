package store

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rim"
)

// Property: snapshot round-trip preserves arbitrary organization names,
// descriptions and slot values (including control characters and unicode
// that must survive JSON encoding).
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(names []string, slotVal string) bool {
		s := New()
		ids := make([]string, 0, len(names))
		for i, name := range names {
			if i >= 16 {
				break
			}
			if name == "" {
				name = "x"
			}
			org := rim.NewOrganization(name)
			org.SetSlot("blob", slotVal)
			if err := s.Put(org); err != nil {
				return false
			}
			ids = append(ids, org.ID)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		restored := New()
		if err := restored.Load(&buf); err != nil {
			return false
		}
		if restored.Len() != s.Len() {
			return false
		}
		for i, id := range ids {
			o, err := restored.Get(id)
			if err != nil {
				return false
			}
			wantName := names[i]
			if wantName == "" {
				wantName = "x"
			}
			if o.Base().Name.String() != wantName {
				return false
			}
			if v, ok := o.Base().SlotValue("blob"); !ok || v != slotVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the type index always agrees with a full scan.
func TestTypeIndexConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		var ids []string
		for i, op := range ops {
			if i >= 64 {
				break
			}
			switch op % 3 {
			case 0:
				o := rim.NewOrganization(fmt.Sprintf("o%d", i))
				s.Put(o)
				ids = append(ids, o.ID)
			case 1:
				svc := rim.NewService(fmt.Sprintf("s%d", i), "")
				svc.AddBinding(fmt.Sprintf("http://h%d/x", i))
				s.Put(svc)
				ids = append(ids, svc.ID)
			case 2:
				if len(ids) > 0 {
					s.Apply(Change{Deletes: []string{ids[int(op)%len(ids)]}})
				}
			}
		}
		orgIdx := len(s.ByType(rim.TypeOrganization))
		svcIdx := len(s.ByType(rim.TypeService))
		orgScan, svcScan := 0, 0
		for _, o := range s.All() {
			switch o.Base().ObjectType {
			case rim.TypeOrganization:
				orgScan++
			case rim.TypeService:
				svcScan++
			}
		}
		return orgIdx == orgScan && svcIdx == svcScan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindByName(pattern) returns exactly the objects whose names
// MatchLike the pattern.
func TestFindByNameAgreesWithMatchLike(t *testing.T) {
	f := func(names []string, rawPattern string) bool {
		pattern := rawPattern
		if pattern == "" {
			pattern = "%"
		}
		s := New()
		want := 0
		for i, n := range names {
			if i >= 16 {
				break
			}
			if n == "" {
				n = "x"
			}
			if err := s.Put(rim.NewOrganization(n)); err != nil {
				return false
			}
			if MatchLike(n, pattern) {
				want++
			}
		}
		return len(s.FindByName(rim.TypeOrganization, pattern)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
