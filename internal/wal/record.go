package wal

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/lcm"
	"repro/internal/rim"
	"repro/internal/store"
)

// walRecord is the JSON payload framed into one WAL record: a logical
// mutation carrying full post-state (see lcm.Mutation). Replay is
// idempotent — Puts overwrite, Deletes ignore already-missing ids — so a
// record also covered by a checkpoint applies harmlessly.
type walRecord struct {
	Op            string           `json:"op"`
	Puts          []store.Envelope `json:"puts,omitempty"`
	Deletes       []string         `json:"deletes,omitempty"`
	ContentPut    string           `json:"contentPut,omitempty"`
	Content       []byte           `json:"content,omitempty"`
	ContentDelete string           `json:"contentDelete,omitempty"`
}

// encodeMutation serializes an acknowledged mutation for appending: the
// bytes json.Marshal(&walRecord{…}) would produce, without handing the
// already-marshalled objects back to encoding/json to be scanned and
// compacted a second time. Everything but the objects — op, deletes, the
// content fields, with their escaping, base64 and omitempty — is one
// json.Marshal of the record without puts; the puts array is spliced in
// after "op", where the struct's field order puts it.
func encodeMutation(m lcm.Mutation) ([]byte, error) {
	rest, err := json.Marshal(&walRecord{
		Op:            m.Op,
		Deletes:       m.Deletes,
		ContentPut:    m.ContentPutID,
		Content:       m.Content,
		ContentDelete: m.ContentDeleteID,
	})
	if err != nil {
		return nil, fmt.Errorf("wal: encode mutation: %w", err)
	}
	if len(m.Puts) == 0 {
		return rest, nil
	}
	envs := make([]store.Envelope, len(m.Puts))
	size := len(rest) + len(`,"puts":[]`)
	for i, o := range m.Puts {
		if envs[i], err = store.EncodeObject(o); err != nil {
			return nil, fmt.Errorf("wal: encode mutation: %w", err)
		}
		size += len(`{"kind":"","data":},`) + len(envs[i].Kind) + len(envs[i].Data)
	}
	at := len(`{"op":`) + jsonStringLen(rest[len(`{"op":`):])
	out := make([]byte, 0, size)
	out = append(out, rest[:at]...)
	out = append(out, `,"puts":[`...)
	for i, env := range envs {
		if i > 0 {
			out = append(out, ',')
		}
		kind, err := json.Marshal(env.Kind)
		if err != nil {
			return nil, fmt.Errorf("wal: encode mutation: %w", err)
		}
		out = append(out, `{"kind":`...)
		out = append(out, kind...)
		out = append(out, `,"data":`...)
		// json.Marshal's output is compact and HTML-escaped already, which
		// is all the encoder would do to a RawMessage.
		out = append(out, env.Data...)
		out = append(out, '}')
	}
	out = append(out, ']')
	return append(out, rest[at:]...), nil
}

// jsonStringLen returns the length of the JSON string literal b starts
// with, quotes included; b must come from encoding/json.
func jsonStringLen(b []byte) int {
	for i := 1; ; i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
}

// applyRecord replays one record's payload into the store.
func applyRecord(s *store.Store, payload []byte) error {
	_, err := ApplyRecord(s, payload)
	return err
}

// ApplyRecord replays one record's payload into the store and returns the
// object ids it touched. Nothing reads them any more — the store's own
// indexes are all a write has to reach — and the result goes when
// bench/layers.go, which compiles against this signature, does.
func ApplyRecord(s *store.Store, payload []byte) ([]string, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("wal: decode record: %w", err)
	}
	ids := make([]string, 0, len(rec.Puts)+len(rec.Deletes))
	for _, env := range rec.Puts {
		o, err := env.Decode()
		if err != nil {
			return nil, fmt.Errorf("wal: replay %s: %w", rec.Op, err)
		}
		if err := s.Put(o); err != nil {
			return nil, fmt.Errorf("wal: replay %s: %w", rec.Op, err)
		}
		ids = append(ids, rim.ID(o))
	}
	for _, id := range rec.Deletes {
		if err := s.Delete(id); err != nil && !errors.Is(err, store.ErrNotFound) {
			return nil, fmt.Errorf("wal: replay %s: %w", rec.Op, err)
		}
		ids = append(ids, id)
	}
	if rec.ContentPut != "" {
		s.PutContent(rec.ContentPut, rec.Content)
	}
	if rec.ContentDelete != "" {
		s.DeleteContent(rec.ContentDelete)
	}
	return ids, nil
}
