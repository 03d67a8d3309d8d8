package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
)

// Read model shared by every workload: 100 bp reads with 2%
// substitutions, sent 16 to a batch. Tenant genomes differ from their
// base in 1% of bases.
const (
	readLen    = 100
	readErr    = 0.02
	batchSize  = 16
	tenantRate = 0.01
)

// The reference genomes are fixed parts of the workloads, as a real
// reference is; the seed draws the reads and the tenant edits. Both are
// rat-like (internal/bench's rat-sim parameters); the 4 MiB genome is
// internal/bench's ratchr1-sim.
const (
	mapGenomeBases  = 4 << 20
	mapGenomeSeed   = 1003
	baseGenomeBases = 1 << 20
	baseGenomeSeed  = 1001
)

// Seed streams: each input drawn from the run's seed uses its own.
const (
	streamReads = iota + 1
	streamTenants
	streamSample
	streamRoute
)

// ratGenome generates a rank-encoded genome with rat-like composition.
func ratGenome(bases int, seed int64) ([]byte, error) {
	return dna.Generate(dna.GenomeConfig{
		Length:         bases,
		GC:             0.42,
		MarkovBias:     0.15,
		RepeatFraction: 0.40,
		TandemFraction: 0.03,
		Seed:           seed,
	})
}

// streamSeed derives an independent generator seed for one input
// stream from the run's seed (a splitmix64 finalizer).
func streamSeed(seed int64, stream, index int) int64 {
	z := uint64(seed) + uint64(stream)<<32 + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// simulateReads draws count reads from a rank-encoded genome with the
// workload read model and returns them as DNA text.
func simulateReads(genome []byte, count int, seed int64) ([][]byte, error) {
	rs, err := dna.Simulate(genome, dna.ReadConfig{Length: readLen, Count: count, ErrorRate: readErr, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = alphabet.Decode(r.Seq)
	}
	return out, nil
}

// mutate returns a copy of a rank-encoded genome with rate·len point
// substitutions, each to one of the three other bases.
func mutate(g []byte, rate float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), g...)
	for range int(float64(len(g)) * rate) {
		p := rng.Intn(len(out))
		out[p] = byte((int(out[p])+rng.Intn(3))%4 + 1)
	}
	return out
}

// fingerprint is the sha256 of a sequence list, each sequence length-
// prefixed, so equal inputs print equal digests and any change in a
// generator shows.
func fingerprint(seqs ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range seqs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}
