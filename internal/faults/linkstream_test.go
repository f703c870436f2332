package faults

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"isomap/internal/network"
)

// TestLinkStreamMatchesMathRand is the lazy stream's oracle: for seeds
// across every reduction case — zero, negatives, multiples and
// near-multiples of 2³¹−1, the int64 extremes and real mix outputs — it
// must yield math/rand's seeded Float64 stream bit for bit. 2000 draws
// cross the register's 273 (tap reads an output), 334 (feed index wraps),
// 607 (feed reads an output) and 880 (every read hits the ring)
// boundaries.
func TestLinkStreamMatchesMathRand(t *testing.T) {
	const draws = 2000
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, 42,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		mix(0, 0), mix(7919, 1<<32|5), mix(uint64(1)<<63, 0x6372617368),
	}
	for key := uint64(0); key < 8; key++ {
		seeds = append(seeds, mix(uint64(key*1000003), key<<32|(key+1)))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newLinkStream(seed)
		for k := 0; k < draws; k++ {
			if w, g := want.Float64(), got.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d draw %d: lazy stream %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// oracleLose is the per-link channel as math/rand streams define it: the
// reference Plan.Lose must reproduce, including the Gilbert–Elliott
// start-state draw.
type oracleLose struct {
	cfg   Config
	links map[uint64]*oracleLink
}

type oracleLink struct {
	rng *rand.Rand
	bad bool
}

func (o *oracleLose) lose(from, to network.NodeID) bool {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	st, ok := o.links[key]
	if !ok {
		st = &oracleLink{rng: rand.New(rand.NewSource(mix(uint64(o.cfg.Seed), key)))}
		if o.cfg.Channel == ChannelGilbertElliott {
			st.bad = st.rng.Float64() < o.cfg.LossRate
		}
		o.links[key] = st
	}
	if o.cfg.Channel == ChannelBernoulli {
		return st.rng.Float64() < o.cfg.LossRate
	}
	lost := st.bad
	if st.bad {
		st.bad = !(st.rng.Float64() < (1-o.cfg.LossRate)*(1-o.cfg.Burstiness))
	} else {
		st.bad = st.rng.Float64() < o.cfg.LossRate*(1-o.cfg.Burstiness)
	}
	return lost
}

// TestLoseMatchesMathRandStreams drives both channel kinds through a
// Plan and the math/rand oracle over interleaved links — receivers inside
// and outside the plan's node table — and requires every loss to agree.
func TestLoseMatchesMathRandStreams(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 9, Channel: ChannelBernoulli, LossRate: 0.3},
		{Seed: -4, Channel: ChannelGilbertElliott, LossRate: 0.2, Burstiness: 0.6},
		{Seed: int32max, Channel: ChannelGilbertElliott, LossRate: 0.45},
	} {
		p, err := New(cfg, 40)
		if err != nil {
			t.Fatal(err)
		}
		o := &oracleLose{cfg: cfg, links: make(map[uint64]*oracleLink)}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 60000; i++ {
			// Receivers 0..49 against a 40-node table exercise the
			// overflow path; a few hot links run past the 607 ring.
			from, to := network.NodeID(rng.Intn(50)), network.NodeID(rng.Intn(50))
			if i%4 == 0 {
				from, to = network.NodeID(i%3), 45
			}
			if got, want := p.Lose(from, to), o.lose(from, to); got != want {
				t.Fatalf("config %+v, reception %d on %d->%d: Lose %t, oracle %t", cfg, i, from, to, got, want)
			}
		}
	}
}

// TestLoseConcurrentReceivers exercises the lock-free receiver table the
// way sharded rounds use it: goroutines draw concurrently, each owning a
// disjoint set of receivers (some beyond the plan's node table, on the
// locked overflow path). Every draw must match a sequential plan's.
func TestLoseConcurrentReceivers(t *testing.T) {
	const nodes, workers, draws = 64, 4, 4000
	cfg := Config{Seed: 21, Channel: ChannelGilbertElliott, LossRate: 0.3, Burstiness: 0.4}
	// link returns the d-th reception owned by worker w: receivers
	// w, w+workers, … up to 80, so 64..79 land in the overflow map.
	link := func(w, d int) (from, to network.NodeID) {
		to = network.NodeID(w + workers*(d%20))
		return network.NodeID(d * 7 % nodes), to
	}
	seq, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]bool, workers)
	for w := range want {
		want[w] = make([]bool, draws)
	}
	// Sequential order differs from the concurrent one, but each link's
	// draws stay in the same per-worker order, which is all a link sees.
	for d := 0; d < draws; d++ {
		for w := 0; w < workers; w++ {
			want[w][d] = seq.Lose(link(w, d))
		}
	}
	par, err := New(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < draws; d++ {
				if got := par.Lose(link(w, d)); got != want[w][d] {
					t.Errorf("worker %d draw %d: concurrent %t, sequential %t", w, d, got, want[w][d])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkPlanLose measures the channel draw: a link's first eight
// receptions (stream creation included), and the steady state of
// receptions on already-drawn links.
func BenchmarkPlanLose(b *testing.B) {
	cfg := Config{Seed: 5, Channel: ChannelGilbertElliott, LossRate: 0.1, Burstiness: 0.6}
	const nodes, degree = 4000, 7
	b.Run("first8", func(b *testing.B) {
		b.ReportAllocs()
		var p *Plan
		for i := 0; i < b.N; i++ {
			if i%(nodes*degree) == 0 {
				b.StopTimer()
				p, _ = New(cfg, nodes)
				b.StartTimer()
			}
			link := i % (nodes * degree)
			from, to := network.NodeID(link%nodes), network.NodeID(link/degree)
			for d := 0; d < 8; d++ {
				p.Lose(from, to)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		p, _ := New(cfg, nodes)
		for link := 0; link < nodes*degree; link++ {
			p.Lose(network.NodeID(link%nodes), network.NodeID(link/degree))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			link := i % (nodes * degree)
			p.Lose(network.NodeID(link%nodes), network.NodeID(link/degree))
		}
	})
}
