package norand

import "math/rand"

// Tests may use the global source; nothing here is diagnosed.
func fuzzSeed() int { return rand.Int() }
