// sledsperf is the repository's benchmark. It is a module of its own so
// that its directory is self-contained (BENCHMARK.json `paths`); the
// `sleds/` path prefix is what lets it import the simulator's internal
// packages, and the replace directive points at the repository root.
module sleds/cmd/sledsperf

go 1.22

require sleds v0.0.0

replace sleds => ../..
