package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// Input make-up shared by every workload. The program under test sees
// only the keys and values these produce.
const (
	valueBytes   = 1024
	baseRecords  = 11264 // plus a seed-dependent 0..recordJitter-1
	recordJitter = 512
	zipfTheta    = 0.99
)

// op is one pre-generated request: a record index and whether it is an
// update (a read otherwise).
type op struct {
	rec   int32
	write bool
}

// inputs is everything a round feeds the program, derived from the seed
// alone, so every round of a run (and every run of the seed) replays
// exactly the same requests.
type inputs struct {
	records int
	keys    [][]byte
	keyMix  []uint64 // per-record salt of the value pattern
	ops     []op
}

// makeInputs draws the record set and the op stream of one workload.
func makeInputs(seed uint64, readFrac float64, nOps int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &inputs{records: baseRecords + rng.IntN(recordJitter)}
	in.keys = make([][]byte, in.records)
	in.keyMix = make([]uint64, in.records)
	for i := range in.keys {
		h := mix64(seed ^ mix64(uint64(i)+1))
		in.keys[i] = []byte(fmt.Sprintf("user%016x", h))
		in.keyMix[i] = mix64(h)
	}
	z := newZipfian(in.records, zipfTheta)
	in.ops = make([]op, nOps)
	for i := range in.ops {
		rec := int32(scramble(z.next(rng), in.records))
		in.ops[i] = op{rec: rec, write: rng.Float64() >= readFrac}
	}
	return in
}

// valueFor fills buf with the 1 KiB pattern of (record, version): a
// splitmix64 stream salted by the key, so a value read back under the
// wrong key or at the wrong version never matches.
func (in *inputs) valueFor(buf []byte, rec int, version uint64) []byte {
	buf = buf[:valueBytes]
	s := in.keyMix[rec] ^ (version * 0xbf58476d1ce4e5b9)
	for i := 0; i < valueBytes; i += 8 {
		s += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(buf[i:], mix64(s))
	}
	return buf
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scramble spreads Zipfian ranks over the key space (YCSB's scrambled
// Zipfian): the hottest items land on unrelated records, hence on
// unrelated heap pages.
func scramble(rank, n int) int {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= uint64(rank>>(8*i)) & 0xff
		h *= prime
	}
	return int(h % uint64(n))
}

// zipfian draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the
// closed-form method of Gray et al. that YCSB uses.
type zipfian struct {
	n                   int
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipfian{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		halfPowTheta: math.Pow(0.5, theta),
	}
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTheta {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
