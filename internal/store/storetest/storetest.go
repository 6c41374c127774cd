// Package storetest holds the reference a store's snapshot is checked
// against, for the tests of the packages that write to a store.Store. The
// store package's own tests hold Save to a reference that encodes every
// frame itself, and hold SaveReference to that one.
package storetest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/rim"
)

// Store is what SaveReference reads of a store.Store.
type Store interface {
	All() []rim.Object
	Save(w io.Writer) error
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveReference writes the snapshot s.Save would write if every object were
// encoded afresh, by encoding/json alone: no appender and no JSON kept from
// a log record or a loaded snapshot. Each object frame holds json.Encoder's
// encoding of the object, as All returns it, in All's id order. The other
// frames — repository content and NodeState rows, which carry no object and
// which a store does not list outside its package — are copied from s.Save's
// own stream, and the trailer counts them all. A store whose Save equals its
// SaveReference therefore saves every object as encoding it would; it says
// nothing of how Save writes content or NodeState rows.
func SaveReference[S Store](s S, w io.Writer) error {
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		return err
	}
	var out, body bytes.Buffer
	enc := json.NewEncoder(&body)
	frames := uint64(0)
	frame := func(kind string, body []byte) {
		payload := append(append([]byte{byte(len(kind))}, kind...), body...)
		out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
		out.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload, castagnoli)))
		out.Write(payload)
		frames++
	}
	for _, o := range s.All() {
		body.Reset()
		if err := enc.Encode(o); err != nil {
			return err
		}
		frame(o.Base().ObjectType.Short(), bytes.TrimSuffix(body.Bytes(), []byte("\n")))
	}
	for rest := saved.Bytes(); ; {
		if len(rest) < 8 {
			return fmt.Errorf("storetest: Save wrote no trailer")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		payload := rest[8 : 8+n]
		rest = rest[8+n:]
		switch kind := string(payload[1 : 1+payload[0]]); kind {
		case "content", "nodeState":
			frame(kind, payload[1+len(kind):])
		case "end":
			frame(kind, binary.LittleEndian.AppendUint64(nil, frames))
			_, err := w.Write(out.Bytes())
			return err
		}
	}
}

// Loader is a Store that can also load a snapshot.
type Loader interface {
	Store
	Load(r io.Reader) error
}

// Reencodes holds s to its fresh encoding, as reference writes it: the
// reference stream and s.Save's each load into an empty store, made by
// empty, whose reference stream is s's. A store that copies the bytes it was
// handed into its snapshots saves them whatever its decoder built of them;
// this is the check that still reaches the decoder.
func Reencodes[S Loader](s S, empty func() S, reference func(S, io.Writer) error) error {
	encode := func(s S) ([]byte, error) {
		var b bytes.Buffer
		err := reference(s, &b)
		return b.Bytes(), err
	}
	want, err := encode(s)
	if err != nil {
		return err
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		return err
	}
	for _, stream := range []struct {
		name string
		data []byte
	}{{"the reference", want}, {"Save", saved.Bytes()}} {
		loaded := empty()
		if err := loaded.Load(bytes.NewReader(stream.data)); err != nil {
			return fmt.Errorf("storetest: %s wrote a stream that does not load: %w", stream.name, err)
		}
		got, err := encode(loaded)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("storetest: the store %s's stream loads into encodes afresh to other bytes", stream.name)
		}
	}
	return nil
}
