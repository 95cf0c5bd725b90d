package main

import (
	"bytes"
	"math"
	"math/rand"
)

// patLen is the period of the payload pattern. It is odd, so no shift by
// a whole number of (power-of-two) blocks maps the pattern onto itself: a
// misplaced block, chunk or rank never verifies.
const patLen = 1<<20 + 7

// payload is the seeded content of every data set: byte off of rank r's
// logical stream is pat[(phase(r)+off) mod patLen]. Writers hand slices of
// pat straight to the library and verifiers compare against them, so
// neither generation nor checking costs more than a memcpy/memcmp.
type payload struct {
	seed int64
	pat  []byte // 2*patLen bytes: pat[i] == pat[i+patLen]
}

func newPayload(seed int64) *payload {
	rng := rand.New(rand.NewSource(seed))
	pat := make([]byte, 2*patLen)
	rng.Read(pat[:patLen])
	copy(pat[patLen:], pat[:patLen])
	return &payload{seed: seed, pat: pat}
}

// phase is rank r's offset into the pattern.
func (p *payload) phase(rank int) int64 {
	return int64(mix64(uint64(p.seed)*0x9e3779b97f4a7c15^uint64(rank)+1) % patLen)
}

// at returns the n ≤ patLen payload bytes of rank at logical offset off.
// The slice aliases the pattern and must not be written.
func (p *payload) at(rank int, off int64, n int) []byte {
	s := (p.phase(rank) + off) % patLen
	return p.pat[s : s+int64(n)]
}

// verify reports whether b holds rank's payload at logical offset off.
func (p *payload) verify(b []byte, rank int, off int64) bool {
	for len(b) > 0 {
		n := min(len(b), patLen)
		if !bytes.Equal(b[:n], p.at(rank, off, n)) {
			return false
		}
		b, off = b[n:], off+int64(n)
	}
	return true
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// logUniform draws an integer in [lo, hi] whose logarithm is uniform, so
// small and large records are equally common per size decade.
func logUniform(rng *rand.Rand, lo, hi int64) int64 {
	if lo >= hi {
		return lo
	}
	v := int64(math.Exp(math.Log(float64(lo)) + rng.Float64()*math.Log(float64(hi)/float64(lo))))
	return min(max(v, lo), hi)
}
