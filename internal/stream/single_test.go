package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestStreamRunSingleCrossProcess runs N independent RunSingle bodies
// — the cmd/node -mode stream process shape — over one shared
// ChanTransport and requires every node to deliver the whole stream in
// order, with every generation verified against the shared seeded
// Source each process derives independently.
func TestStreamRunSingleCrossProcess(t *testing.T) {
	const n, k, d, gens, window = 4, 6, 32, 6, 3
	tr := cluster.NewChanTransport(n, InboxBuffer(n, 2))
	defer tr.Close()

	var delivered atomic.Int64
	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), Config{
				N: n, K: k, PayloadBits: d, Window: window,
				Generations: gens, Seed: 33, Transport: tr,
				Timeout: 30 * time.Second,
			}, cluster.SingleConfig{ID: id, Linger: 500 * time.Millisecond})
			delivered.Add(int64(results[id].Delivered))
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d delivered %d/%d generations", id, results[id].Delivered, gens)
		}
	}
	if got, want := delivered.Load(), int64(n*gens); got != want {
		t.Errorf("total deliveries %d, want %d", got, want)
	}
}

// TestStreamRunSingleValidation pins the misconfiguration errors.
func TestStreamRunSingleValidation(t *testing.T) {
	tr := cluster.NewChanTransport(2, 1)
	defer tr.Close()
	base := Config{N: 2, K: 2, PayloadBits: 8, Generations: 2, Transport: tr}
	cases := []struct {
		name string
		mut  func(c Config) Config
		id   int
	}{
		{"no transport", func(c Config) Config { c.Transport = nil; return c }, 0},
		{"id out of range", func(c Config) Config { return c }, 2},
		{"negative id", func(c Config) Config { return c }, -1},
		{"zero k", func(c Config) Config { c.K = 0; return c }, 0},
		{"zero payload", func(c Config) Config { c.PayloadBits = 0; return c }, 0},
		{"zero generations", func(c Config) Config { c.Generations = 0; return c }, 0},
		{"negative window", func(c Config) Config { c.Window = -1; return c }, 0},
		{"lockstep", func(c Config) Config { c.Lockstep = true; return c }, 0},
	}
	for _, tc := range cases {
		if _, err := RunSingle(context.Background(), tc.mut(base), cluster.SingleConfig{ID: tc.id}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestStreamRunSingleLingersThenReturns pins the linger window for the
// stream protocol: a lone node delivers every generation at Prime,
// keeps running for Linger, and then returns well before its Timeout.
func TestStreamRunSingleLingersThenReturns(t *testing.T) {
	const linger, gens = 100 * time.Millisecond, 3
	tr := cluster.NewChanTransport(1, InboxBuffer(1, 2))
	defer tr.Close()
	start := time.Now()
	m, err := RunSingle(context.Background(), Config{
		N: 1, K: 4, PayloadBits: 16, Generations: gens, Seed: 1,
		Transport: tr, Timeout: 10 * time.Second,
	}, cluster.SingleConfig{ID: 0, Linger: linger})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("lone node errored: %v", err)
	}
	if !m.Done || m.Delivered != gens {
		t.Errorf("lone node: done=%v delivered=%d, want done with %d", m.Done, m.Delivered, gens)
	}
	if elapsed < linger || elapsed >= 5*time.Second {
		t.Errorf("returned after %v, want in [%v, 5s)", elapsed, linger)
	}
}
