package cluster

// Bit-equality of the sharded lockstep engine against the serial
// driver: the tentpole property of the sharding refactor. A sharded
// run must be indistinguishable from a serial one in everything
// observable — ticks, every per-node counter, every telemetry tally —
// at every shard count, under churn and loss, for arbitrary seeds.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

// shardedClusterFingerprint runs one seeded churn×loss lockstep run at
// the given shard count and flattens everything observable into a
// string: the run aggregates, every node's full metrics struct, and
// every telemetry counter.
func shardedClusterFingerprint(t *testing.T, seed int64, shards int, mode Mode) string {
	t.Helper()
	const n, k, d = 12, 8, 48
	sched, err := ParseChurn("crash:6:1,join:9:1,leave:13:1,restart:17:1")
	if err != nil {
		t.Fatal(err)
	}
	maxN := n + sched.Joins()
	rec := telemetry.New(telemetry.Config{Nodes: maxN})
	tr := WithLoss(NewChanTransport(maxN, InboxBuffer(maxN, 3)), 0.15, seed+103)
	res, err := Run(context.Background(), Config{
		N: n, Fanout: 2, Mode: mode, Seed: seed, Transport: tr,
		Lockstep: true, Shards: shards, MaxTicks: 100000, Churn: sched, Telemetry: rec,
	}, testTokens(k, d, seed))
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v ticks=%d live=%d out=%d in=%d bits=%d dropped=%d\n",
		res.Completed, res.Ticks, res.FinalLive, res.PacketsOut, res.PacketsIn, res.BitsOut, res.Dropped)
	for id, m := range res.Nodes {
		fmt.Fprintf(&b, "node %d: out=%d in=%d hellos=%d bits=%d dropped=%d innov=%d done=%v@%d spawned=%v live=%v join=%d\n",
			id, m.PacketsOut, m.PacketsIn, m.HellosOut, m.BitsOut, m.Dropped,
			m.Innovative, m.Done, m.DoneTick, m.Spawned, m.Live, m.JoinTick)
	}
	c := rec.Counters()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, c[k])
	}
	return b.String()
}

// goldenClusterFingerprints pins the SHA-256 of the serial churn×loss
// fingerprint at fixed seeds, per mode. The bit-identity properties
// only compare runs with each other, so a refactor that shifted every
// churn run the same way at every shard count would pass them; these
// hashes catch it.
var goldenClusterFingerprints = map[Mode]map[int64]string{
	Coded: {
		7:  "6470df83fb6bf5a57141c9c6b53962d77839308af7517f1e88099cf8f7973307",
		21: "9ed27efb88295dcc13ee7c460007f97c7128962a5b6c07753f5192f0c2b26f4a",
	},
	Forward: {
		21: "c1696bb9e053effd4a370e3173fb7e8cc47bb106f36495ed4ec6f2708dac7bc7",
		33: "ec8e96f252e48fa8364e12157621e1e9d9227f2ff02e367feb6a844f5a42b81c",
	},
}

// checkClusterGolden fails the test unless the serial fingerprint of
// seed in mode hashes to its pinned value.
func checkClusterGolden(t *testing.T, seed int64, mode Mode, serial string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial))); got != goldenClusterFingerprints[mode][seed] {
		t.Errorf("%v seed %d: fingerprint hash %s, golden %s:\n%s", mode, seed, got, goldenClusterFingerprints[mode][seed], serial)
	}
}

// TestShardedLockstepBitIdentical is the quick.Check property from the
// issue: for arbitrary seeds, the sharded engine at shards 4 and
// GOMAXPROCS (and an uneven 3, which exercises ragged ranges) produces
// byte-identical transcripts to the serial driver, with churn and loss
// engaged. The golden seeds run first and also pin the serial hash.
func TestShardedLockstepBitIdentical(t *testing.T) {
	counts := []int{3, 4, runtime.GOMAXPROCS(0)}
	prop := func(rawSeed int64) bool {
		seed := rawSeed%10000 + 1
		serial := shardedClusterFingerprint(t, seed, 1, Coded)
		if _, ok := goldenClusterFingerprints[Coded][seed]; ok {
			checkClusterGolden(t, seed, Coded, serial)
		}
		for _, shards := range counts {
			if sharded := shardedClusterFingerprint(t, seed, shards, Coded); sharded != serial {
				t.Logf("seed %d shards %d diverges:\n--- serial ---\n%s--- shards=%d ---\n%s",
					seed, shards, serial, shards, sharded)
				return false
			}
		}
		return true
	}
	for seed := range goldenClusterFingerprints[Coded] {
		if !prop(seed - 1) {
			t.Fatalf("golden seed %d diverges across shard counts", seed)
		}
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLockstepForwardMode covers the store-and-forward gossiper
// at fixed seeds: sharding lives below the gossiper interface, so
// both protocol disciplines must replay identically.
func TestShardedLockstepForwardMode(t *testing.T) {
	for seed := range goldenClusterFingerprints[Forward] {
		serial := shardedClusterFingerprint(t, seed, 1, Forward)
		checkClusterGolden(t, seed, Forward, serial)
		for _, shards := range []int{2, 5} {
			if got := shardedClusterFingerprint(t, seed, shards, Forward); got != serial {
				t.Fatalf("forward mode seed %d diverges at shards=%d", seed, shards)
			}
		}
	}
}

// TestShardsRequireLockstep pins the library-level validation: the
// async driver is already concurrent, so Shards>1 without Lockstep is
// a configuration error, not a silent fallback.
func TestShardsRequireLockstep(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4, Shards: 2}, testTokens(2, 16, 1))
	if err == nil || !strings.Contains(err.Error(), "Lockstep") {
		t.Fatalf("async Shards=2 accepted: %v", err)
	}
}
