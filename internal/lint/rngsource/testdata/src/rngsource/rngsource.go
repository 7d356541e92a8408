package fake

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func bad() int {
	rand.Seed(42)                       // want `rand\.Seed draws from the process-global RNG`
	_ = rand.Float64()                  // want `rand\.Float64 draws from the process-global RNG`
	rand.Shuffle(3, func(i, j int) {})  // want `rand\.Shuffle draws from the process-global RNG`
	_ = randv2.IntN(3)                  // want `rand/v2\.IntN draws from the process-global RNG`
	r := rand.New(rand.NewSource(1234)) // a constant seed is a derivation root
	return r.Intn(10) + rand.Intn(10)   // want `rand\.Intn draws from the process-global RNG`
}

func ok(seed int64) *rand.Rand {
	r := rand.New(rand.NewSource(seed))
	_ = r.Intn(10) // method on a threaded *rand.Rand, not the global source
	return r
}

func suppressed() int {
	//sledlint:allow seedflow -- demo shuffle outside any measured sweep
	return rand.Intn(3)
}

func missingReason() {
	//sledlint:allow seedflow // want `malformed`
	rand.Seed(7) // want `rand\.Seed draws from the process-global RNG`
}

func emptyReason() {
	/* want `empty reason` */ //sledlint:allow seedflow --
	_ = rand.Float64()        // want `rand\.Float64 draws from the process-global RNG`
}
