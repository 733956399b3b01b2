package telemetry_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// runRecorded executes a small, fully seeded coded broadcast (n = k)
// on the synchronous engine with a recorder attached.
func runRecorded(t *testing.T, n int) *telemetry.Recorder {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	nodes := make([]dynnet.Node, n)
	const d = 8
	schedule := rlnc.DefaultSchedule(n, n)
	for i := 0; i < n; i++ {
		nrng := rand.New(rand.NewSource(int64(i + 10)))
		nodes[i] = rlnc.NewBroadcastNode(n, d, schedule,
			[]rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}, nrng)
	}
	rec := telemetry.New(telemetry.Config{Nodes: n})
	e := dynnet.NewEngine(nodes, adversary.NewRandomConnected(n, n/2, 2),
		dynnet.Config{Observer: rec})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderSamplesEveryRound(t *testing.T) {
	const n = 12
	rec := runRecorded(t, n)
	stats := rec.TickStats()
	if len(stats) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range stats {
		if s.Tick != int64(i) {
			t.Fatalf("stat %d has tick %d", i, s.Tick)
		}
		if s.Nodes != n {
			t.Fatalf("round %d: %d nodes sampled, want %d", i, s.Nodes, n)
		}
		if s.MaxRank < s.MinRank {
			t.Fatalf("round %d: max < min", i)
		}
	}
	for id := 0; id < n; id++ {
		if got := len(rec.Samples(id)); got != len(stats) {
			t.Fatalf("node %d has %d samples, want %d", id, got, len(stats))
		}
	}
	// Each edge shows up in the View (degree) of both endpoints.
	for i := range stats {
		degrees := 0
		for id := 0; id < n; id++ {
			degrees += int(rec.Samples(id)[i].View)
		}
		if edges := degrees / 2; edges < n-1 {
			t.Fatalf("round %d: %d edges for a connected %d-node graph", i, edges, n)
		}
	}
	// The runtime views read engine recordings as they are.
	if h := rec.RankHeatmap(8); len(h.Values) != n {
		t.Errorf("heatmap has %d rows, want %d", len(h.Values), n)
	}
}

// TestKnowledgeMonotone asserts rank never decreases — the span is
// monotone, so the recorded mean must be too.
func TestKnowledgeMonotone(t *testing.T) {
	prev := 0.0
	for _, s := range runRecorded(t, 12).TickStats() {
		if s.MeanRank+1e-9 < prev {
			t.Fatalf("mean knowledge decreased: %f -> %f", prev, s.MeanRank)
		}
		prev = s.MeanRank
	}
}

func TestCompletionRound(t *testing.T) {
	rec := runRecorded(t, 12)
	round, ok := rec.CompletionTick(12)
	if !ok {
		t.Fatal("run never completed")
	}
	if round <= 0 || round > 4*(12+12)+16 {
		t.Errorf("completion round %d out of range", round)
	}
	stats := rec.TickStats()
	if last := stats[len(stats)-1]; last.MinRank != 12 || last.Nodes != 12 {
		t.Errorf("final round: %d nodes with min rank %d, want 12 complete", last.Nodes, last.MinRank)
	}
}

// TestInnovationDecays checks the Section 5.2 shape: the first half of
// the run carries at least as much innovation as the second half.
func TestInnovationDecays(t *testing.T) {
	curve := runRecorded(t, 16).InnovationCurve()
	if len(curve) < 4 {
		t.Skip("run too short")
	}
	half := len(curve) / 2
	first, second := 0.0, 0.0
	for i, v := range curve {
		if i < half {
			first += v
		} else {
			second += v
		}
	}
	if first < second {
		t.Errorf("innovation grew over time: first=%.2f second=%.2f", first, second)
	}
}

func TestSparkline(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		width  int
		want   int // rune count
	}{
		{"empty", nil, 10, 0},
		{"flat", []float64{1, 1, 1}, 3, 3},
		{"ramp", []float64{0, 1, 2, 3, 4, 5, 6, 7}, 8, 8},
		{"downsample", make([]float64, 100), 10, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := telemetry.Sparkline(tt.values, tt.width)
			if n := len([]rune(got)); n != tt.want {
				t.Errorf("rune count = %d, want %d (%q)", n, tt.want, got)
			}
		})
	}
	// A ramp must end on the tallest bar.
	ramp := telemetry.Sparkline([]float64{0, 1, 2, 3}, 4)
	if !strings.HasSuffix(ramp, "█") {
		t.Errorf("ramp %q does not end at full height", ramp)
	}
}

func TestReportRenders(t *testing.T) {
	rep := runRecorded(t, 8).Report(8)
	for _, want := range []string{"rounds observed", "complete at round", "mean knowledge", "innovation rate"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if empty := telemetry.New(telemetry.Config{Nodes: 1}).Report(0); !strings.Contains(empty, "no samples") {
		t.Error("empty recorder report wrong")
	}
}

// TestDecodableCurveGolden pins the round-curve output of a small fully
// deterministic run (n = k = 6, seeds fixed): every derived curve and
// its rendering must reproduce bit for bit. The early decodable values
// and the saturation at k are the Section 5.2 "late reveal" shape the
// curve exists to expose.
func TestDecodableCurveGolden(t *testing.T) {
	rec := runRecorded(t, 6)
	total := 0
	for id := 0; id < 6; id++ {
		total += len(rec.Samples(id))
	}
	if rounds := len(rec.TickStats()); rounds != 64 || total != 6*64 {
		t.Fatalf("rounds = %d, samples = %d, want the full 64-round schedule on 6 nodes", rounds, total)
	}
	if round, ok := rec.CompletionTick(6); !ok || round != 7 {
		t.Errorf("completion round = %d (ok=%v), want 7", round, ok)
	}

	curve := rec.DecodableCurve()
	if len(curve) != 64 {
		t.Fatalf("curve length %d != 64 rounds", len(curve))
	}
	wantHead := []float64{2.5, 2.5, 3, 13.0 / 3, 14.0 / 3, 16.0 / 3, 16.0 / 3, 6}
	for i, want := range wantHead {
		if math.Abs(curve[i]-want) > 1e-9 {
			t.Errorf("decodable[%d] = %.6f, want %.6f", i, curve[i], want)
		}
	}
	// After completion every node decodes all k = 6 tokens, forever.
	for i := 7; i < len(curve); i++ {
		if curve[i] != 6 {
			t.Fatalf("decodable[%d] = %.3f after completion, want 6", i, curve[i])
		}
	}
	// Decodability is monotone: a token recoverable from a span stays
	// recoverable under span growth.
	for i := 1; i < len(curve); i++ {
		if curve[i]+1e-9 < curve[i-1] {
			t.Fatalf("decodable curve decreased at round %d: %.3f -> %.3f", i, curve[i-1], curve[i])
		}
	}

	wantInno := []float64{0, 2.0 / 3, 4.0 / 3, 1.0 / 3, 2.0 / 3, 0, 0.5, 0}
	inno := rec.InnovationCurve()
	if len(inno) != 63 {
		t.Fatalf("innovation length %d, want 63", len(inno))
	}
	for i, want := range wantInno {
		if math.Abs(inno[i]-want) > 1e-9 {
			t.Errorf("innovation[%d] = %.6f, want %.6f", i, inno[i], want)
		}
	}

	if got, want := telemetry.Sparkline(curve, 20), "▁▅▇█████████████████"; got != want {
		t.Errorf("decodable sparkline %q, want %q", got, want)
	}
}

// TestSummariesOnClusterLockstep runs the round summaries on a gossip
// runtime recording: a churnless lockstep cluster run samples every
// live node each tick, so span-rank monotonicity carries over to the
// mean, and the report renders from the same samples the heatmaps use.
func TestSummariesOnClusterLockstep(t *testing.T) {
	const n, k = 16, 8
	rec := telemetry.New(telemetry.Config{Nodes: n})
	toks := token.RandomSet(k, 32, rand.New(rand.NewSource(4)))
	res, err := cluster.Run(context.Background(), cluster.Config{
		N: n, Fanout: 2, Mode: cluster.Coded, Seed: 4, Lockstep: true, Telemetry: rec,
	}, toks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	stats := rec.TickStats()
	if len(stats) != res.Ticks {
		t.Fatalf("%d sampled ticks, run took %d", len(stats), res.Ticks)
	}
	prev := 0.0
	for _, s := range stats {
		if s.Nodes != n {
			t.Fatalf("tick %d: %d nodes sampled, want %d", s.Tick, s.Nodes, n)
		}
		if s.MeanRank < prev {
			t.Fatalf("tick %d: mean rank decreased %f -> %f", s.Tick, prev, s.MeanRank)
		}
		prev = s.MeanRank
	}
	if prev <= stats[0].MeanRank {
		t.Errorf("mean rank never grew: %f -> %f", stats[0].MeanRank, prev)
	}
	rep := rec.Report(k)
	for _, want := range []string{"rounds observed", "mean knowledge", "innovation rate"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
