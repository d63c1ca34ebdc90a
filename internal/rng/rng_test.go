package rng

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// equivDraws covers three full passes over the 607-word state, so every
// word is read as seeded, then as fed back, then again.
const equivDraws = 3 * rngLen

// testSeeds are the normalization edge cases plus 500 random seeds.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, 89482311, math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestUint64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for i := 0; i < equivDraws; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

func TestInt63MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:32] {
		want, got := rand.NewSource(seed), New(seed)
		for i := 0; i < equivDraws; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: got %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestDerivedStreamsMatchMathRand checks the distributions the simulator
// draws through rand.Rand: Float64, Intn, Int63n and Zipf.
func TestDerivedStreamsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:64] {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		wz := rand.NewZipf(want, 1.2, 1, 63)
		gz := rand.NewZipf(got, 1.2, 1, 63)
		for i := 0; i < 400; i++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d Float64 %d: got %v, want %v", seed, i, g, w)
			}
			if w, g := want.Intn(64+i), got.Intn(64+i); w != g {
				t.Fatalf("seed %d Intn %d: got %d, want %d", seed, i, g, w)
			}
			if w, g := want.Int63n(1<<40+int64(i)), got.Int63n(1<<40+int64(i)); w != g {
				t.Fatalf("seed %d Int63n %d: got %d, want %d", seed, i, g, w)
			}
			if w, g := wz.Uint64(), gz.Uint64(); w != g {
				t.Fatalf("seed %d Zipf %d: got %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestPooledReuseReproducesFreshStream: a generator handed back mid-stream
// and reseeded must not leak any state from its previous stream.
func TestPooledReuseReproducesFreshStream(t *testing.T) {
	for i, seed := range testSeeds()[:64] {
		r := Get(seed ^ 0x5a5a)
		for j := 0; j < i*11; j++ { // stop at a different point each time
			r.Uint64()
		}
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for j := 0; j < equivDraws; j++ {
			if w, g := want.Uint64(), r.Uint64(); w != g {
				t.Fatalf("seed %d reseeded draw %d: got %#x, want %#x", seed, j, g, w)
			}
		}
		Put(r)
	}
	// Through the pool: Get reseeds whatever generator it hands out.
	for _, seed := range testSeeds()[:64] {
		r := Get(seed)
		want := rand.New(rand.NewSource(seed))
		for j := 0; j < 100; j++ {
			if w, g := want.Float64(), r.Float64(); w != g {
				t.Fatalf("seed %d pooled draw %d: got %v, want %v", seed, j, g, w)
			}
		}
		Put(r)
	}
}

// TestConcurrentGetPut exercises the pool from several goroutines; run it
// under -race.
func TestConcurrentGetPut(t *testing.T) {
	seeds := testSeeds()[:64]
	want := make([]uint64, len(seeds))
	for i, seed := range seeds {
		src := rand.NewSource(seed).(rand.Source64)
		for j := 0; j < 99; j++ {
			src.Uint64()
		}
		want[i] = src.Uint64()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range seeds {
					k := (i + g*7) % len(seeds)
					r := Get(seeds[k])
					var v uint64
					for j := 0; j < 100; j++ {
						v = r.Uint64()
					}
					Put(r)
					if v != want[k] {
						t.Errorf("goroutine %d seed %d: draw 99 = %#x, want %#x", g, seeds[k], v, want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchSink keeps the benchmarks' draws live.
var benchSink float64

// BenchmarkChunkStream is one chunk's worth of randomness: seed, 64
// Float64 draws, release.
func BenchmarkChunkStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Get(int64(i))
		for j := 0; j < 64; j++ {
			benchSink += r.Float64()
		}
		Put(r)
	}
}

// BenchmarkMathRandChunkStream is the same work on a fresh
// rand.NewSource per chunk.
func BenchmarkMathRandChunkStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 64; j++ {
			benchSink += r.Float64()
		}
	}
}
