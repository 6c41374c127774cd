package wal

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"repro/internal/jsonscan"
	"repro/internal/lcm"
	"repro/internal/store"
)

// walRecord is the JSON payload framed into one WAL record: a logical
// mutation carrying full post-state (see lcm.Mutation). Replay is
// idempotent — Deletes ignore already-missing ids, Puts overwrite — so a
// record also covered by a checkpoint applies harmlessly.
type walRecord struct {
	Op            string           `json:"op"`
	Puts          []store.Envelope `json:"puts,omitempty"`
	Deletes       []string         `json:"deletes,omitempty"`
	ContentPut    string           `json:"contentPut,omitempty"`
	Content       []byte           `json:"content,omitempty"`
	ContentDelete string           `json:"contentDelete,omitempty"`
}

// appendMutation appends an acknowledged mutation, serialized for
// appending to the log, to b: the bytes json.Marshal(&walRecord{…}) would
// write, with each put's envelope written by store.AppendEnvelope straight
// into b, and the rest — op, deletes, content with its base64, omitempty —
// by hand.
func appendMutation(b []byte, m lcm.Mutation) ([]byte, error) {
	b = append(b, `{"op":`...)
	b = jsonscan.AppendString(b, m.Op)
	if len(m.Puts) > 0 {
		b = append(b, `,"puts":[`...)
		for i, o := range m.Puts {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = store.AppendEnvelope(b, o); err != nil {
				return b, fmt.Errorf("wal: encode mutation: %w", err)
			}
		}
		b = append(b, ']')
	}
	if len(m.Deletes) > 0 {
		b = append(b, `,"deletes":[`...)
		for i, id := range m.Deletes {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonscan.AppendString(b, id)
		}
		b = append(b, ']')
	}
	if m.ContentPutID != "" {
		b = jsonscan.AppendString(append(b, `,"contentPut":`...), m.ContentPutID)
	}
	if len(m.Content) > 0 {
		b = append(base64.StdEncoding.AppendEncode(append(b, `,"content":"`...), m.Content), '"')
	}
	if m.ContentDeleteID != "" {
		b = jsonscan.AppendString(append(b, `,"contentDelete":`...), m.ContentDeleteID)
	}
	return append(b, '}'), nil
}

// scanRecord decodes a payload of the shape appendMutation writes — the six
// keys of walRecord in their exact case, each at most once, no whitespace,
// every put's data an object — into rec, as json.Unmarshal would, without
// reflection and without copying the objects' JSON: each Data aliases
// payload. Any other shape is declined, for json.Unmarshal to decode or to
// refuse. The objects' spans are found by counting brackets, not parsed:
// the store's decoder is what checks them.
func scanRecord(payload []byte, rec *walRecord) bool {
	s := jsonscan.New(payload)
	if !s.Lit("{") {
		return false
	}
	var seen jsonscan.Fields
	for first := true; ; first = false {
		key, done, ok := s.Member(first)
		if !ok {
			return false
		}
		if done {
			return s.AtEnd()
		}
		var bit jsonscan.Fields
		switch string(key) {
		case "op":
			bit = 1
			rec.Op, ok = s.String()
		case "puts":
			bit = 2
			ok = scanPuts(&s, rec)
		case "deletes":
			bit = 4
			rec.Deletes, ok = s.Strings()
		case "contentPut":
			bit = 8
			rec.ContentPut, ok = s.String()
		case "content":
			bit = 16
			var text []byte
			if text, ok = s.Text(); ok {
				// As encoding/json decodes a []byte.
				rec.Content = make([]byte, base64.StdEncoding.DecodedLen(len(text)))
				n, err := base64.StdEncoding.Decode(rec.Content, text)
				rec.Content, ok = rec.Content[:n], err == nil
			}
		case "contentDelete":
			bit = 32
			rec.ContentDelete, ok = s.String()
		default:
			return false
		}
		if !ok || !seen.First(bit) {
			return false
		}
	}
}

// scanPuts decodes the array of envelopes the cursor is on.
func scanPuts(s *jsonscan.Scanner, rec *walRecord) bool {
	if !s.Lit("[") {
		return false
	}
	for first := true; ; first = false {
		if done, ok := s.Elem(first); done || !ok {
			return ok
		}
		if !s.Lit("{") {
			return false
		}
		var env store.Envelope
		var seen jsonscan.Fields
		for first := true; ; first = false {
			key, done, ok := s.Member(first)
			if !ok {
				return false
			}
			if done {
				break
			}
			var bit jsonscan.Fields
			switch string(key) {
			case "kind":
				bit = 1
				env.Kind, ok = s.String()
			case "data":
				bit = 2
				var span []byte
				span, ok = s.Span()
				env.Data = span
			default:
				return false
			}
			if !ok || !seen.First(bit) {
				return false
			}
		}
		rec.Puts = append(rec.Puts, env)
	}
}

// applyRecord replays one record's payload into the store.
func applyRecord(s *store.Store, payload []byte) error {
	_, err := ApplyRecord(s, payload)
	return err
}

// ApplyRecord replays one record's payload into the store: scanned when it
// has the shape this package writes, through json.Unmarshal when it has any
// other. A record none of whose objects fails to decode is applied whole;
// any other leaves the store untouched. The first result is always nil —
// nothing reads the ids a record touched any more, and it goes when
// bench/layers.go, which compiles against this signature, does.
func ApplyRecord(s *store.Store, payload []byte) ([]string, error) {
	var rec walRecord
	if !scanRecord(payload, &rec) {
		rec = walRecord{}
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("wal: decode record: %w", err)
		}
	}
	return nil, rec.apply(s)
}

// apply makes the record's one call on the store: the puts are decoded
// there, and the change then goes through Store.Apply, the call the
// leader's LifeCycleManager made when it wrote the record.
func (rec *walRecord) apply(s *store.Store) error {
	err := s.ApplyEncoded(rec.Puts, store.Change{Deletes: rec.Deletes,
		ContentPutID: rec.ContentPut, Content: rec.Content, ContentDeleteID: rec.ContentDelete})
	if err != nil {
		return fmt.Errorf("wal: replay %s: %w", rec.Op, err)
	}
	return nil
}
