// Package splitmix is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), the
// one generator behind every seeded choice the simulator makes: text and
// pixel content, trace generation, fault schedules, lmbench probe offsets
// and experiment seed derivation. A stream is a bare uint64 its owner
// keeps, so drawing from it allocates nothing, and both functions are
// small enough to inline into the content generators' inner loops.
package splitmix

// Gamma is the state increment: the odd integer nearest 2^64 divided by
// the golden ratio.
const Gamma = 0x9e3779b97f4a7c15

// Next advances the stream at state by Gamma and returns the mixed new
// state.
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}

// Mix is the SplitMix64 finalizer: a bijective avalanche of x.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
