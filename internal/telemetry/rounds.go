package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// This file records the synchronous engine (dynnet) through the same
// per-node samples the gossip runtimes write, and summarizes any
// recording round by round: knowledge spread, innovation, and early
// decoding. The innovation curve's early-high, late-low shape is the
// "wasted broadcasts" phenomenon of Section 5.2 that motivates coding.

var _ dynnet.Observer = (*Recorder)(nil)

// ObserveRound implements dynnet.Observer: one sample per node whose
// knowledge is known, ticked with the round number (see Sample for how
// the columns read under the engine).
func (r *Recorder) ObserveRound(round int, g *graph.Graph, msgs []dynnet.Message, nodes []dynnet.Node) {
	if r == nil {
		return
	}
	for id, n := range nodes {
		known, decodable, ok := knowledge(n)
		if !ok {
			continue
		}
		inbox := 0
		for _, v := range g.Neighbors(id) {
			if msgs[v] != nil {
				inbox++
			}
		}
		r.SampleTick(id, int64(round), known, decodable, inbox, g.Degree(id))
	}
}

// knowledge extracts a node's knowledge measure when its type is known:
// span rank (and decodable tokens) for coding nodes, token-set size for
// forwarding nodes.
func knowledge(n dynnet.Node) (known, decodable int, ok bool) {
	switch v := n.(type) {
	case *rlnc.BroadcastNode:
		return v.Span().Rank(), v.Span().DecodableCount(), true
	case interface{ Set() *token.Set }:
		return v.Set().Len(), 0, true
	default:
		return 0, 0, false
	}
}

// TickStat summarizes the nodes sampled at one tick.
type TickStat struct {
	Tick int64
	// Nodes is the number of nodes sampled at the tick.
	Nodes int
	// MinRank, MeanRank and MaxRank summarize the Rank column: knowledge
	// under the engine, decoding progress under the runtimes.
	MinRank  int
	MeanRank float64
	MaxRank  int
	// MeanWatermark is the mean Watermark column: decodable tokens per
	// node under the engine, the delivery watermark under stream.
	MeanWatermark float64
}

// TickStats returns one summary per sampled tick, in tick order. The
// engine and the lockstep drivers sample every node at the same ticks;
// async recordings tick by wall offset, so their nodes rarely share a
// tick. Call after the run.
func (r *Recorder) TickStats() []TickStat {
	if r == nil {
		return nil
	}
	at := make(map[int64]int)
	var stats []TickStat
	var rankSum, markSum []int64
	for id := range r.recs {
		for _, s := range r.recs[id].samples {
			i, ok := at[s.Tick]
			if !ok {
				i = len(stats)
				at[s.Tick] = i
				stats = append(stats, TickStat{Tick: s.Tick, MinRank: int(s.Rank), MaxRank: int(s.Rank)})
				rankSum = append(rankSum, 0)
				markSum = append(markSum, 0)
			}
			st := &stats[i]
			st.Nodes++
			st.MinRank = min(st.MinRank, int(s.Rank))
			st.MaxRank = max(st.MaxRank, int(s.Rank))
			rankSum[i] += int64(s.Rank)
			markSum[i] += int64(s.Watermark)
		}
	}
	for i := range stats {
		stats[i].MeanRank = float64(rankSum[i]) / float64(stats[i].Nodes)
		stats[i].MeanWatermark = float64(markSum[i]) / float64(stats[i].Nodes)
	}
	slices.SortFunc(stats, func(a, b TickStat) int { return cmp.Compare(a.Tick, b.Tick) })
	return stats
}

// CompletionTick returns the first tick at which every sampled node
// reached target, or -1.
func (r *Recorder) CompletionTick(target int) (int64, bool) {
	if target > 0 {
		for _, s := range r.TickStats() {
			if s.MinRank >= target {
				return s.Tick, true
			}
		}
	}
	return -1, false
}

// InnovationCurve returns, per tick after the first, the increase of
// the mean rank — the share of communication that carried new
// information.
func (r *Recorder) InnovationCurve() []float64 {
	stats := r.TickStats()
	out := make([]float64, 0, len(stats))
	for i := 1; i < len(stats); i++ {
		out = append(out, stats[i].MeanRank-stats[i-1].MeanRank)
	}
	return out
}

// DecodableCurve returns the mean watermark per tick. Under the engine
// that is the mean number of individually recoverable tokens per coding
// node: a long flat start followed by a late surge, the dual of the
// innovation curve, since random combinations carry information at once
// but reveal single tokens only as the span closes in on full rank.
func (r *Recorder) DecodableCurve() []float64 {
	stats := r.TickStats()
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = s.MeanWatermark
	}
	return out
}

// Sparkline renders values as a unicode bar chart for terminal output.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width < 1 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	// Downsample to width buckets by averaging.
	bucketed := make([]float64, 0, width)
	per := float64(len(values)) / float64(width)
	if per < 1 {
		per = 1
	}
	for i := 0; i < len(values); i = int(float64(i) + per) {
		hi := int(float64(i) + per)
		if hi > len(values) {
			hi = len(values)
		}
		if hi <= i {
			hi = i + 1
		}
		sum := 0.0
		for _, v := range values[i:hi] {
			sum += v
		}
		bucketed = append(bucketed, sum/float64(hi-i))
		if len(bucketed) == width {
			break
		}
	}
	lo, hi := bucketed[0], bucketed[0]
	for _, v := range bucketed {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range bucketed {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(bars)-1))
		}
		sb.WriteRune(bars[idx])
	}
	return sb.String()
}

// Report renders a human-readable round-by-round summary of the
// recording; target is the full-knowledge rank (k), 0 if unknown.
func (r *Recorder) Report(target int) string {
	stats := r.TickStats()
	if len(stats) == 0 {
		return "telemetry: no samples recorded\n"
	}
	var sb strings.Builder
	last := stats[len(stats)-1]
	fmt.Fprintf(&sb, "rounds observed: %d, final knowledge min/mean/max: %d/%.1f/%d\n",
		len(stats), last.MinRank, last.MeanRank, last.MaxRank)
	if tick, ok := r.CompletionTick(target); ok {
		fmt.Fprintf(&sb, "all nodes complete at round %d\n", tick)
	}
	means := make([]float64, len(stats))
	for i, s := range stats {
		means[i] = s.MeanRank
	}
	fmt.Fprintf(&sb, "mean knowledge:  %s\n", Sparkline(means, 60))
	fmt.Fprintf(&sb, "innovation rate: %s\n", Sparkline(r.InnovationCurve(), 60))
	if last.MeanWatermark > 0 {
		fmt.Fprintf(&sb, "decodable toks:  %s\n", Sparkline(r.DecodableCurve(), 60))
	}
	return sb.String()
}
