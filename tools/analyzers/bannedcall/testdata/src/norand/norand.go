// Package norand is the fixture for the norand analyzer: global-source
// calls are diagnosed, while seeded *rand.Rand usage and source
// construction stay clean.
package norand

import "math/rand"

func bad() {
	_ = rand.Int()                     // want `rand\.Int uses the global math/rand source`
	_ = rand.Intn(10)                  // want `rand\.Intn uses the global math/rand source`
	_ = rand.Float64()                 // want `rand\.Float64 uses the global math/rand source`
	_ = rand.ExpFloat64()              // want `rand\.ExpFloat64 uses the global math/rand source`
	_ = rand.Perm(4)                   // want `rand\.Perm uses the global math/rand source`
	rand.Shuffle(2, func(i, j int) {}) // want `rand\.Shuffle uses the global math/rand source`
	rand.Seed(7)                       // want `rand\.Seed uses the global math/rand source`
}

func good(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1.0, 100)
	var src rand.Source = rand.NewSource(seed)
	_ = src
	var spare *rand.Rand
	_ = spare
	return rng.ExpFloat64() + float64(z.Uint64())
}
