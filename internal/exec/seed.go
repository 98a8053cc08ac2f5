package exec

// splitmix64 is the SplitMix64 finalizer — a bijective avalanche mix whose
// output streams pass BigCrush. It is the standard tool for spawning
// independent PRNG seeds from structured integers.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed derives the seed for one trial from an experiment's base seed
// and the trial's logical coordinates (collision size, trial index, regime
// index, ...). The derivation is:
//
//   - deterministic — the same (base, dims...) always yields the same seed,
//     independent of worker count, scheduling, or call order;
//   - order-sensitive — DeriveSeed(s, 1, 2) != DeriveSeed(s, 2, 1), so
//     sweep dimensions never alias;
//   - well-mixed — adjacent coordinates produce uncorrelated seeds, unlike
//     the base+k*1000+trial arithmetic it replaces, which could collide
//     across dimensions and fed consecutive integers to the PRNG.
//
// Every Monte-Carlo loop in the repository seeds its per-trial randomness
// (scenario synthesis, SNR draws) through this function;
// that contract is what makes parallel and serial runs identical.
func DeriveSeed(base uint64, dims ...uint64) uint64 {
	h := splitmix64(base)
	for _, d := range dims {
		h = Mix(h, d)
	}
	return h
}

// Start begins an incremental DeriveSeed chain:
//
//	DeriveSeed(base, d1, ..., dn) == Mix(...Mix(Mix(Start(base), d1), d2)..., dn)
//
// The incremental form exists for hot loops that fold coordinates one at a
// time (the city-scale engine derives billions of per-node draws this way):
// unlike the variadic call it involves no slice, and a chain prefix shared
// by many draws — (seed, dimension) for every node, say — can be hashed
// once and reused. TestSeedChainEquivalence pins the identity above.
func Start(base uint64) uint64 { return splitmix64(base) }

// Mix folds one more logical coordinate into an incremental DeriveSeed
// chain started with Start. See Start for the identity with DeriveSeed.
func Mix(h, dim uint64) uint64 { return splitmix64(h ^ splitmix64(dim)) }
