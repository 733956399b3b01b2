package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/stream"
	"repro/internal/token"
)

// shards is the lockstep engines' worker count in every workload: the
// benchmark host has two CPUs, and the harness itself runs one child at
// a time, so the engine's own shards are the only concurrency.
const shards = 2

// fanout is the runtimes' peers per emission (their default), which the
// pre-built transports' inbox sizing must match.
const fanout = 2

type kind int

const (
	kindCluster kind = iota
	kindStream
	kindEngine
)

// workload is one seeded input shape. Only the seed varies between
// iterations; everything else is fixed here.
type workload struct {
	name    string
	kind    kind
	n, k, d int
	loss    float64
	// window and gens are the stream runtime's window and stream length.
	window, gens int
}

var workloads = []workload{
	{name: "cluster-wide", kind: kindCluster, n: 10000, k: 32, d: 64},
	{name: "cluster-deep", kind: kindCluster, n: 64, k: 1024, d: 1024, loss: 0.2},
	{name: "stream-acks", kind: kindStream, n: 256, k: 16, d: 256, loss: 0.2, window: 4, gens: 64},
	{name: "engine-random", kind: kindEngine, n: 384, k: 384, d: 512},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// vecBits is the coded vector length the workload's spans hold: the
// runtimes code the 64-bit token UID alongside the payload
// (cluster.TokenVec); the synchronous engine codes the payload alone.
func (w workload) vecBits() int {
	if w.kind == kindEngine {
		return w.k + w.d
	}
	return w.k + token.UIDBits + w.d
}

// transcript is what a run's observable behaviour reduces to. A traced
// run must reproduce the untraced run's transcript exactly.
type transcript struct {
	Ticks      int
	PacketsOut int64
	PacketsIn  int64
	AcksOut    int64
	Dropped    int64
	Bits       int64
	Innovative int64
	Stale      int64
	// NodeHash folds every node's counters and completion tick.
	NodeHash uint64
}

// sample is one child process's report of one seeded run.
type sample struct {
	Workload string
	Seed     int64
	Err      string `json:",omitempty"`
	N        int
	// WallS is the whole public call; SetupS the part before the tick
	// loop (plus, for the runtimes, the post-loop verification that Run
	// performs); LoopS the tick loop.
	WallS, SetupS, LoopS float64
	Deliveries           int64
	AllocBytes           uint64
	GCCycles             uint64
	Transcript           transcript
	// Layers holds the traced run's per-layer figures (traced only).
	Layers map[string]float64 `json:",omitempty"`
	// MaxRSSKiB is filled in by the parent from the child's rusage.
	MaxRSSKiB int64
}

// memStats reads the runtime's cumulative allocation and GC counters.
func memStats() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runOnce executes one seeded iteration of w, traced or not, and checks
// its outputs. A failed check is reported in sample.Err.
func runOnce(w workload, seed int64, traced bool) sample {
	s := sample{Workload: w.name, Seed: seed, N: w.n}
	var err error
	switch w.kind {
	case kindCluster:
		err = runCluster(w, seed, traced, &s)
	case kindStream:
		err = runStream(w, seed, traced, &s)
	case kindEngine:
		err = runEngine(w, seed, traced, &s)
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// lossSeed derives the loss coins' seed from the run seed.
func lossSeed(seed int64) int64 { return seed ^ 0x5eed1055 }

func runCluster(w workload, seed int64, traced bool, s *sample) error {
	toks := token.RandomSet(w.k, w.d, rand.New(rand.NewSource(seed)))
	cfg := cluster.Config{N: w.n, Fanout: fanout, Mode: cluster.Coded, Seed: seed, Lockstep: true, Shards: shards}
	var tr *tracer
	switch {
	case traced:
		tr = newTracer(w.n, cluster.DefaultInboxBuffer(w.n, fanout), w.loss, lossSeed(seed))
		cfg.Transport = tr
	case w.loss > 0:
		cfg.Transport = cluster.WithLoss(cluster.NewChanTransport(w.n, cluster.DefaultInboxBuffer(w.n, fanout)), w.loss, lossSeed(seed))
	}
	// With neither tracing nor loss, Transport stays nil: the library's
	// default inbox sizing.

	a0, g0 := memStats()
	start := time.Now()
	res, err := cluster.Run(context.Background(), cfg, toks)
	wall := time.Since(start)
	a1, g1 := memStats()
	if err != nil {
		return err
	}
	s.WallS, s.LoopS = wall.Seconds(), res.Elapsed.Seconds()
	s.SetupS = s.WallS - s.LoopS
	s.AllocBytes, s.GCCycles = a1-a0, g1-g0
	if !res.Completed || res.FinalLive != w.n {
		return fmt.Errorf("cluster run incomplete after %d ticks (%d live)", res.Ticks, res.FinalLive)
	}
	s.Deliveries = int64(w.n) * int64(w.k)
	h := fnv.New64a()
	var innov int64
	for _, m := range res.Nodes {
		if !m.Done {
			return fmt.Errorf("node not done on a completed run")
		}
		innov += m.Innovative
		hashInts(h, int64(m.DoneTick), m.PacketsIn, m.PacketsOut, m.Innovative, m.Dropped)
	}
	s.Transcript = transcript{Ticks: res.Ticks, PacketsOut: res.PacketsOut, PacketsIn: res.PacketsIn,
		Dropped: res.Dropped, Bits: res.BitsOut, Innovative: innov, NodeHash: h.Sum64()}
	if tr != nil {
		s.Layers = tr.layers(res.Elapsed, "cluster")
		if err := tr.check(res.PacketsOut, res.BitsOut); err != nil {
			return err
		}
		s.Layers["rlnc.useful_frac"] = float64(innov) / float64(res.PacketsIn)
		s.Layers["trace.loop_s"] = s.LoopS
	}
	return nil
}

func runStream(w workload, seed int64, traced bool, s *sample) error {
	// Deliveries are checked against an independent instance of the
	// seeded source, so a corrupted generation fails here even if the
	// runtime's own verification were bypassed.
	ref := stream.NewSeededSource(w.k, w.d, seed)
	delivered := make([]int64, w.n)
	var bad atomic.Int64
	deliver := func(node, gen int, toks []token.Token) {
		want := ref.Generation(gen)
		for j := range toks {
			if !toks[j].Equal(want[j]) {
				bad.Add(1)
			}
		}
		delivered[node] += int64(len(toks))
	}
	cfg := stream.Config{N: w.n, K: w.k, PayloadBits: w.d, Window: w.window, Generations: w.gens,
		Fanout: fanout, Seed: seed, Lockstep: true, Shards: shards, Deliver: deliver}
	buf := stream.DefaultInboxBuffer(w.n, fanout)
	var tr *tracer
	if traced {
		tr = newTracer(w.n, buf, w.loss, lossSeed(seed))
		cfg.Transport = tr
	} else {
		cfg.Transport = cluster.WithLoss(cluster.NewChanTransport(w.n, buf), w.loss, lossSeed(seed))
	}

	a0, g0 := memStats()
	start := time.Now()
	res, err := stream.Run(context.Background(), cfg)
	wall := time.Since(start)
	a1, g1 := memStats()
	if err != nil {
		return err
	}
	s.WallS, s.LoopS = wall.Seconds(), res.Elapsed.Seconds()
	s.SetupS = s.WallS - s.LoopS
	s.AllocBytes, s.GCCycles = a1-a0, g1-g0
	want := int64(w.n) * int64(w.k) * int64(w.gens)
	if !res.Completed || res.TokensDelivered != want {
		return fmt.Errorf("stream run incomplete after %d ticks: %d of %d tokens delivered", res.Ticks, res.TokensDelivered, want)
	}
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("stream delivered %d tokens that differ from the source", n)
	}
	var got int64
	for _, d := range delivered {
		got += d
	}
	if got != want {
		return fmt.Errorf("stream consumer saw %d of %d tokens", got, want)
	}
	s.Deliveries = want
	h := fnv.New64a()
	var innov, stale int64
	for _, m := range res.Nodes {
		innov += m.Innovative
		stale += m.Stale
		hashInts(h, int64(m.DoneTick), m.PacketsIn, m.AcksIn, m.Innovative, m.Stale, int64(m.MaxSpanBytes))
	}
	s.Transcript = transcript{Ticks: res.Ticks, PacketsOut: res.PacketsOut, PacketsIn: res.PacketsIn,
		AcksOut: res.AcksOut, Dropped: res.Dropped, Bits: res.BitsOut, Innovative: innov, Stale: stale, NodeHash: h.Sum64()}
	if tr != nil {
		s.Layers = tr.layers(res.Elapsed, "stream")
		if err := tr.check(res.PacketsOut+res.AcksOut, res.BitsOut); err != nil {
			return err
		}
		in := float64(res.PacketsIn)
		s.Layers["rlnc.useful_frac"] = float64(innov) / in
		s.Layers["stream.useful_frac"] = float64(innov) / in
		s.Layers["stream.stale_frac"] = float64(stale) / in
		s.Layers["stream.acks_per_token"] = float64(res.AcksOut) / float64(want)
		s.Layers["stream.span_bytes_max"] = float64(res.MaxSpanBytes)
		s.Layers["trace.loop_s"] = s.LoopS
	}
	return nil
}

// runEngine is the paper's synchronous model: indexed broadcast of k
// tokens over a topology the adversary redraws every round, stepped
// until every node can decode (the loop of exp.RunIndexedUntilDecoded,
// which does not shard or decode), then decoded and compared with the
// generated source at every node.
func runEngine(w workload, seed int64, traced bool, s *sample) error {
	rng := rand.New(rand.NewSource(seed))
	payloads := make([]gf.BitVec, w.k)
	for i := range payloads {
		payloads[i] = gf.RandomBitVec(w.d, rng.Uint64)
	}
	sched := 64 * (w.n + w.k)

	a0, g0 := memStats()
	start := time.Now()
	impls := make([]*rlnc.BroadcastNode, w.n)
	nodes := make([]dynnet.Node, w.n)
	var tnodes []*tracedNode
	if traced {
		tnodes = make([]*tracedNode, w.n)
	}
	for i := range impls {
		var initial []rlnc.Coded
		if i < w.k {
			initial = []rlnc.Coded{rlnc.Encode(i, w.k, payloads[i])}
		}
		impls[i] = rlnc.NewBroadcastNode(w.k, w.d, sched, initial, rand.New(rand.NewSource(seed+100+int64(i))))
		nodes[i] = impls[i]
		if traced {
			tnodes[i] = &tracedNode{BroadcastNode: impls[i]}
			nodes[i] = tnodes[i]
		}
	}
	var adv dynnet.Adversary = adversary.NewRandomConnected(w.n, w.n/2, seed)
	var tadv *tracedAdversary
	if traced {
		tadv = &tracedAdversary{inner: adv}
		adv = tadv
	}
	e := dynnet.NewEngine(nodes, adv, dynnet.Config{BitBudget: w.k + w.d, Shards: shards})
	loopStart := time.Now()
	var steps []time.Duration
	rounds := 0
	for !allDecodable(impls) {
		if rounds == sched {
			return fmt.Errorf("engine: not decoded in %d rounds", sched)
		}
		t0 := time.Now()
		if err := e.Step(); err != nil {
			return err
		}
		if traced {
			steps = append(steps, time.Since(t0))
		}
		rounds++
	}
	loopEnd := time.Now()
	decoded := make([][]gf.BitVec, w.n)
	for i, impl := range impls {
		vecs, err := impl.Span().Decode()
		if err != nil {
			return fmt.Errorf("engine: node %d: %w", i, err)
		}
		decoded[i] = vecs
	}
	wall := time.Since(start)
	a1, g1 := memStats()
	for i, vecs := range decoded {
		for j, v := range vecs {
			if !v.Equal(payloads[j]) {
				return fmt.Errorf("engine: node %d decoded token %d wrong", i, j)
			}
		}
	}

	s.WallS = wall.Seconds()
	s.SetupS = loopStart.Sub(start).Seconds()
	s.LoopS = loopEnd.Sub(loopStart).Seconds()
	s.AllocBytes, s.GCCycles = a1-a0, g1-g0
	s.Deliveries = int64(w.n) * int64(w.k)
	m := e.Metrics()
	s.Transcript = transcript{Ticks: rounds, PacketsOut: int64(m.Messages), Bits: m.Bits}
	if traced {
		s.Layers = engineLayers(tnodes, tadv, steps, rounds, m)
		s.Layers["trace.loop_s"] = s.LoopS
	}
	return nil
}

func allDecodable(impls []*rlnc.BroadcastNode) bool {
	for _, impl := range impls {
		if !impl.Span().CanDecode() {
			return false
		}
	}
	return true
}

func hashInts(h io.Writer, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:]) // hash writes never fail
	}
}
