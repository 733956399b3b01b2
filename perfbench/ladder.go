package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/shard"
	"repro/internal/wire"
)

// ladderBudget is the time each rung spends repeating its call.
const ladderBudget = 150 * time.Millisecond

// perCall repeats rep until ladderBudget has passed (at least five
// times) and returns the median over repetitions of ns per call; rep
// returns how many calls it made.
func perCall(rep func() int) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < ladderBudget {
		t0 := time.Now()
		calls := rep()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// ladder replays the public calls each layer serves the workload, at
// the workload's exact shapes and on vectors drawn from seed, and
// returns ns (or µs, s, bytes) per call. A rung the workload never
// calls is reported as 0.
func ladder(w workload, seed int64) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := w.vecBits()
	payload := cols - w.k
	full := rlnc.NewSpan(w.k, payload)
	for i := 0; i < w.k; i++ {
		full.Add(rlnc.Encode(i, w.k, gf.RandomBitVec(payload, rng.Uint64)))
	}
	// A receiver fills its span from random combinations; a few extra
	// cover the redundant receipts near full rank.
	pool := make([]rlnc.Coded, w.k+8)
	for i := range pool {
		pool[i], _ = full.RandomCombination(rng)
	}
	out := map[string]float64{}

	out["gf.insert_ns"] = perCall(func() int {
		m := gf.NewBitMatrix(cols)
		for _, c := range pool {
			m.Insert(c.Vec)
		}
		return len(pool)
	})
	out["rlnc.add_ns"] = perCall(func() int {
		s := rlnc.NewSpan(w.k, payload)
		for _, c := range pool {
			s.Add(c)
		}
		return len(pool)
	})
	var dst rlnc.Coded
	const batch = 64
	out["rlnc.combine_ns"] = perCall(func() int {
		for i := 0; i < batch; i++ {
			if w.kind == kindEngine {
				full.CombineInto(&dst, rng)
			} else {
				full.RandomCombinationInto(&dst, rng)
			}
		}
		return batch
	})
	out["rlnc.span_bytes"] = float64(full.MemoryBytes())

	ex := shard.New(w.n, shards)
	out["shard.barrier_us"] = perCall(func() int {
		for i := 0; i < batch; i++ {
			ex.Run(func(int, int, int) {})
		}
		return batch
	}) / 1e3

	if w.kind == kindEngine {
		return out
	}

	var buf []byte
	var rx wire.Packet
	data := wire.NewCoded(0, 0, pool[0])
	out["wire.data_roundtrip_ns"] = perCall(func() int {
		for i := 0; i < batch; i++ {
			buf = data.AppendTo(buf[:0])
			if err := wire.UnmarshalInto(&rx, buf); err != nil {
				panic(err) // a packet the codec just wrote must parse
			}
		}
		return batch
	})
	if w.kind == kindStream {
		ack := wire.Ack{Watermark: 1, Ranks: make([]wire.GenRank, w.window), Peers: make([]wire.PeerMark, w.n)}
		for i := range ack.Peers {
			ack.Peers[i] = wire.PeerMark{Node: uint32(i), Watermark: 1}
		}
		pkt := wire.NewAck(0, 0, ack)
		out["wire.ack_roundtrip_ns"] = perCall(func() int {
			for i := 0; i < batch; i++ {
				buf = pkt.AppendTo(buf[:0])
				if err := wire.UnmarshalInto(&rx, buf); err != nil {
					panic(err)
				}
			}
			return batch
		})
	}

	// Every node of a runtime run builds a view and marks each initial
	// member: n views of n marks.
	out["cluster.view_setup_s"] = perCall(func() int {
		v := cluster.NewView(0, w.n)
		for id := 0; id < w.n; id++ {
			v.Mark(id, 0)
		}
		return 1
	}) * float64(w.n) / 1e9
	return out
}
