package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rim"
)

// populationService builds service i of a population shaped like the
// benchmark's (bench/gen.go): ids drawn from rng, a name every binding URI
// repeats, an owner every binding shares, and — for nine services in ten —
// a description carrying a <constraint> block, which json.Marshal
// HTML-escapes.
func populationService(rng *rand.Rand, i, bindings int) *rim.Service {
	id := func() string {
		return fmt.Sprintf("urn:uuid:%08x-%04x-4%03x-8%03x-%012x",
			rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<12), rng.Intn(1<<12), rng.Int63n(1<<48))
	}
	name := fmt.Sprintf("svc-%05d", i)
	description := "benchmark service " + name
	if rng.Intn(10) != 0 {
		description += fmt.Sprintf(" <constraint><cpuLoad>load ls %.1f</cpuLoad><memory>memory gr %dGB</memory></constraint>",
			0.5*float64(1+rng.Intn(4)), 1+rng.Intn(3))
	}
	svc := rim.NewService(name, description)
	svc.ID = id()
	svc.LID = svc.ID
	svc.Owner = "urn:uuid:00000000-0000-4000-8000-00000000cafe"
	for j := 0; j < bindings; j++ {
		b := rim.NewServiceBinding(svc.ID, fmt.Sprintf("http://127.0.%d.%d:8080/%s/run", 1+j/250, 1+j%250, name))
		b.ID = id()
		b.LID = b.ID
		b.Owner = svc.Owner
		svc.Bindings = append(svc.Bindings, b)
	}
	return svc
}

var decodeSink Frame

// BenchmarkDecodeObject is one Service frame of a checkpoint becoming an
// object: what boot, WAL replay and a follower's apply spend their time in.
func BenchmarkDecodeObject(b *testing.B) {
	for _, bindings := range []int{4, 32} {
		b.Run(fmt.Sprint(bindings), func(b *testing.B) {
			body, err := json.Marshal(populationService(rand.New(rand.NewSource(1)), 1, bindings))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decodeSink, err = DecodeFrame("Service", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreLoad is Load of 256 services of 32 bindings, 6 MB: an eighth
// of the benchmark's cold population.
func BenchmarkStoreLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	for i := 0; i < 256; i++ {
		if err := s.Put(populationService(rng, i, 32)); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New().Load(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
