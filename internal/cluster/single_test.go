package cluster

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestRunSingleCrossProcessEquivalent runs N independent RunSingle
// bodies — the cmd/node process shape — over one shared ChanTransport
// and requires every node to decode and verify all k tokens, proving
// the single-node runtime interoperates without the in-process drivers'
// shared run state.
func TestRunSingleCrossProcessEquivalent(t *testing.T) {
	const n, k, d = 5, 10, 64
	toks := testTokens(k, d, 11)
	tr := NewChanTransport(n, InboxBuffer(n, 2))
	defer tr.Close()

	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), Config{
				N: n, Seed: 21, Transport: tr, Timeout: 20 * time.Second,
			}, SingleConfig{ID: id, Linger: 500 * time.Millisecond}, toks)
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d did not complete (innovative %d, in %d)",
				id, results[id].Innovative, results[id].PacketsIn)
		}
	}
}

// TestRunSingleForwardMode exercises the store-and-forward gossiper
// through the single-node runtime.
func TestRunSingleForwardMode(t *testing.T) {
	const n, k, d = 3, 6, 32
	toks := testTokens(k, d, 5)
	tr := NewChanTransport(n, InboxBuffer(n, 2))
	defer tr.Close()

	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), Config{
				N: n, Mode: Forward, Seed: 9, Transport: tr, Timeout: 20 * time.Second,
			}, SingleConfig{ID: id, Linger: 500 * time.Millisecond}, toks)
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d did not complete", id)
		}
	}
}

// TestRunSingleValidation pins the misconfiguration errors.
func TestRunSingleValidation(t *testing.T) {
	toks := testTokens(2, 8, 1)
	tr := NewChanTransport(2, 1)
	defer tr.Close()
	cases := []struct {
		name string
		cfg  Config
		id   int
	}{
		{"no transport", Config{N: 2}, 0},
		{"id out of range", Config{N: 2, Transport: tr}, 2},
		{"negative id", Config{N: 2, Transport: tr}, -1},
		{"bad mode", Config{N: 2, Mode: 7, Transport: tr}, 0},
		{"lockstep", Config{N: 2, Transport: tr, Lockstep: true}, 0},
		{"shards", Config{N: 2, Transport: tr, Shards: 2}, 0},
		{"churn", Config{N: 2, Transport: tr, Churn: &ChurnSchedule{}}, 0},
	}
	for _, tc := range cases {
		if _, err := RunSingle(context.Background(), tc.cfg, SingleConfig{ID: tc.id}, toks); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := RunSingle(context.Background(), Config{N: 2, Transport: tr}, SingleConfig{}, nil); err == nil {
		t.Error("empty token set: no error")
	}
}

// TestRunSingleTimeoutIncomplete pins the partition behavior: a node
// whose peers never show up times out with Done == false and no error
// (the caller decides whether that is a failure).
func TestRunSingleTimeoutIncomplete(t *testing.T) {
	toks := testTokens(4, 16, 3)
	tr := NewChanTransport(2, 4)
	defer tr.Close()
	m, err := RunSingle(context.Background(), Config{
		N: 2, Seed: 1, Transport: tr,
		Timeout: 50 * time.Millisecond, Interval: time.Millisecond,
	}, SingleConfig{ID: 0}, toks)
	if err != nil {
		t.Fatalf("timeout run errored: %v", err)
	}
	if m.Done {
		t.Error("node completed without its peer's tokens")
	}
}

// TestRunSingleKnownGate verifies that a Known predicate confines
// emissions to routable peers: with only the self entry known, nothing
// is ever sent.
func TestRunSingleKnownGate(t *testing.T) {
	toks := testTokens(4, 16, 3)
	tr := NewChanTransport(3, 4)
	defer tr.Close()
	m, err := RunSingle(context.Background(), Config{
		N: 3, Seed: 1, Transport: tr,
		Timeout: 50 * time.Millisecond, Interval: time.Millisecond,
	}, SingleConfig{ID: 0, Known: func(id int) bool { return id == 0 }}, toks)
	if err != nil {
		t.Fatalf("gated run errored: %v", err)
	}
	if m.PacketsOut != 0 {
		t.Errorf("node emitted %d packets with an empty address book", m.PacketsOut)
	}
}

// TestRunSingleLingersThenReturns pins the linger window: a lone node
// completes at Prime, keeps running for Linger, and then returns well
// before its Timeout with Done set and no error.
func TestRunSingleLingersThenReturns(t *testing.T) {
	const linger = 100 * time.Millisecond
	toks := testTokens(4, 16, 3)
	tr := NewChanTransport(1, InboxBuffer(1, 2))
	defer tr.Close()
	start := time.Now()
	m, err := RunSingle(context.Background(), Config{
		N: 1, Seed: 1, Transport: tr, Timeout: 10 * time.Second,
	}, SingleConfig{ID: 0, Linger: linger}, toks)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("lone node errored: %v", err)
	}
	if !m.Done {
		t.Error("lone node holding every token did not complete")
	}
	if elapsed < linger || elapsed >= 5*time.Second {
		t.Errorf("returned after %v, want in [%v, 5s)", elapsed, linger)
	}
}
