package accessregistry

// The two XML documents a session is driven by are read from files the
// operator writes, so neither decoder may panic on any input. The shipped
// SampleFiles seed both targets; testdata/fuzz holds them as corpus files.

import (
	"bytes"
	"os"
	"testing"
)

// addSampleFiles seeds f with the named SampleFiles.
func addSampleFiles(f *testing.F, names ...string) {
	for _, name := range names {
		data, err := os.ReadFile(sample(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzParseConnection: on any bytes ParseConnection returns a configuration
// with an alias and a URL, or an error; it never panics.
func FuzzParseConnection(f *testing.F) {
	addSampleFiles(f, "ConnectLocal.xml", "ConnectVolta.xml")
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConnection(bytes.NewReader(data))
		if err == nil && (cfg.Alias == "" || cfg.URL == "") {
			t.Fatalf("accepted a connection without an alias or a URL: %+v", cfg)
		}
	})
}

// FuzzParseActions: on any bytes ParseActions returns a document that keeps
// the DTD's structural rules, or an error; it never panics.
func FuzzParseActions(f *testing.F) {
	addSampleFiles(f, "PublishToRegistry.xml", "ModifyRegistry.xml", "AccessRegistry.xml")
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseActions(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(doc.Actions) == 0 {
			t.Fatal("accepted a document without actions")
		}
		for _, a := range doc.Actions {
			if len(a.Organizations) == 0 {
				t.Fatalf("accepted a %s action without organizations", a.Type)
			}
		}
	})
}
