// Command perfbench is the repository benchmark. It runs one of four
// seeded lockstep workloads (see workloads.go) for a fixed wall-clock
// budget, one fresh child process per seeded iteration, checks every
// run's outputs, and prints the run-level metrics (untraced, -trace 0)
// or the per-layer metrics (traced, -trace 1), each by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload cluster-deep --seed 1 --seconds 20 --trace 0
//
// The harness is a closed loop with one caller: it starts the next
// child only after the previous one has exited, so the lockstep
// engines' own shards are the only concurrency. Iteration i of a run
// with seed s uses seed s*1000+i; the same seed gives the same inputs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json must list
// exactly these.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"ns_per_node_tick", "ns"},
	{"ticks", "count"},
	{"deliveries_per_s", "1/s"},
	{"bits_per_token", "bit"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
}

var perLayer = []metricDef{
	{"cluster.view_setup_s", "s"},
	{"cluster.parallel_s", "s"},
	{"cluster.exchange_s", "s"},
	{"cluster.send_ns", "ns"},
	{"cluster.queue_drop_frac", "frac"},
	{"cluster.loss_drop_frac", "frac"},
	{"cluster.inbox_depth_mean", "count"},
	{"cluster.inbox_depth_max", "count"},
	{"cluster.tick_ms_p50", "ms"},
	{"cluster.tick_ms_max", "ms"},
	{"cluster.bytes_per_node", "B"},
	{"gf.insert_ns", "ns"},
	{"rlnc.add_ns", "ns"},
	{"rlnc.combine_ns", "ns"},
	{"rlnc.span_bytes", "B"},
	{"rlnc.useful_frac", "frac"},
	{"wire.data_roundtrip_ns", "ns"},
	{"wire.ack_roundtrip_ns", "ns"},
	{"wire.data_bytes", "B"},
	{"wire.ack_bytes", "B"},
	{"stream.ack_bits_frac", "frac"},
	{"stream.acks_per_token", "count"},
	{"stream.useful_frac", "frac"},
	{"stream.stale_frac", "frac"},
	{"stream.span_bytes_max", "B"},
	{"stream.exchange_s", "s"},
	{"stream.tick_ms_p50", "ms"},
	{"stream.tick_ms_p99", "ms"},
	{"shard.barrier_us", "us"},
	{"dynnet.step_ms_p50", "ms"},
	{"dynnet.step_ms_p99", "ms"},
	{"dynnet.node_send_ns", "ns"},
	{"dynnet.node_recv_ns", "ns"},
	{"dynnet.msgs_per_round", "count"},
	{"adversary.graph_us", "us"},
	{"graph.edges_per_round", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.loop_s", "s"},
	{"trace.attributed_s", "s"},
}

// childTimeout bounds one child process; the largest workload takes
// under ten seconds.
const childTimeout = 120 * time.Second

func main() {
	child := flag.String("child", "", "internal: run one iteration in this process (run, traced or ladder)")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if err := checkSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, budget)
	} else {
		res = untracedRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runChild(mode string, w workload, seed int64) error {
	var v any
	switch mode {
	case "run", "traced":
		v = runOnce(w, seed, mode == "traced")
	case "ladder":
		v = ladder(w, seed)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// spawn runs one child iteration and returns its report, with the
// child's peak RSS taken from its rusage (the per-child figure that
// getrusage(RUSAGE_CHILDREN) accumulates).
func spawn(mode string, w workload, seed int64, into any) (maxRSSKiB int64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%s child (seed %d): %w", mode, seed, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), into); err != nil {
		return 0, fmt.Errorf("%s child (seed %d): %w", mode, seed, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child process")
	}
	return ru.Maxrss, nil
}

func runSample(mode string, w workload, seed int64) sample {
	var s sample
	rss, err := spawn(mode, w, seed, &s)
	if err != nil {
		return sample{Workload: w.name, Seed: seed, Err: err.Error()}
	}
	s.MaxRSSKiB = rss
	return s
}

func iterSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// more reports whether iteration i runs: the first least always do,
// and after them one runs only if, at the mean pace so far, it ends
// within the budget. A run therefore does not overshoot its budget by a
// whole iteration, which bounds its length on a slow host.
func more(i, least int, start time.Time, budget time.Duration) bool {
	if i < least {
		return true
	}
	spent := time.Since(start)
	return spent+spent/time.Duration(i) <= budget
}

// warmUp runs one unmeasured iteration before the budget starts: on the
// virtual machine this benchmark was written on, the first process
// after an idle spell ran 25-35% slower than the ones after it. A
// warm-up that fails its checks still counts as a failed run.
func warmUp(w workload, seed int64) (failed int) {
	if s := runSample("run", w, iterSeed(seed, 999)); s.Err != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s warm-up seed %d failed: %s\n", w.name, s.Seed, s.Err)
		return 1
	}
	return 0
}

// untracedRun measures end-to-end metrics: seeded iterations within
// the budget (at least three), each in a fresh process, reporting the
// median of each metric.
func untracedRun(w workload, seed int64, budget time.Duration) result {
	var ok []sample
	attempted, failed := 1, warmUp(w, seed)
	start := time.Now()
	for i := 0; more(i, 3, start, budget); i++ {
		attempted++
		s := runSample("run", w, iterSeed(seed, i))
		if s.Err != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %s\n", w.name, s.Seed, s.Err)
			failed++
			continue
		}
		ok = append(ok, s)
	}
	vals := map[string][]float64{}
	for _, s := range ok {
		t := float64(s.Transcript.Ticks)
		add := func(k string, v float64) { vals[k] = append(vals[k], v) }
		add("wall_s", s.WallS)
		add("setup_s", s.SetupS)
		add("ns_per_node_tick", s.LoopS*1e9/(t*float64(s.N)))
		add("ticks", t)
		add("deliveries_per_s", float64(s.Deliveries)/s.WallS)
		add("bits_per_token", float64(s.Transcript.Bits)/float64(s.Deliveries))
		add("peak_rss_mib", float64(s.MaxRSSKiB)/1024)
		add("alloc_mib", float64(s.AllocBytes)/(1<<20))
	}
	fmt.Printf("perfbench %s seed=%d trace=0: %d runs, %d failed, %.1fs\n", w.name, seed, attempted, failed, time.Since(start).Seconds())
	fmt.Printf("  %-18s %14s %14s %14s  %s\n", "metric", "value", "q1", "q3", "unit")
	res := result{Correct: failed == 0 && len(ok) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range endToEnd {
		xs := vals[m.name]
		sort.Float64s(xs)
		q1, v, q3 := quartiles(xs)
		if m.name == "ticks" || m.name == "bits_per_token" {
			// Both are fixed by the seed and step with the integer tick
			// count, so their median jumps between levels; the mean over
			// the run's seeds moves smoothly.
			v = mean(xs)
		}
		fmt.Printf("  %-18s %14.6g %14.6g %14.6g  %s\n", m.name, v, q1, q3, m.unit)
		res.Metrics[m.name] = value{v, m.unit}
	}
	fmt.Printf("  %-18s %14.6g %14s %14s  %s\n", "fail_frac", float64(failed)/float64(attempted), "", "", "frac")
	if !res.Correct {
		res.Metrics = map[string]value{}
	}
	return res
}

// tracedRun measures per-layer metrics: one ladder child, then pairs
// of an untraced and a traced child on the same seed within the budget
// (at least two pairs). A pair whose transcripts differ counts
// as a failure: the tracing layers must not change the run.
func tracedRun(w workload, seed int64, budget time.Duration) (result, error) {
	attempted, failed := 1, warmUp(w, seed)
	var lad map[string]float64
	if _, err := spawn("ladder", w, seed, &lad); err != nil {
		return result{}, err
	}
	var pairs []map[string]float64
	start := time.Now()
	for i := 0; more(i, 2, start, budget); i++ {
		attempted++
		u := runSample("run", w, iterSeed(seed, i))
		t := runSample("traced", w, iterSeed(seed, i))
		switch {
		case u.Err != "" || t.Err != "":
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %s%s\n", w.name, u.Seed, u.Err, t.Err)
			failed++
			continue
		case u.Transcript != t.Transcript:
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced transcript %+v differs from untraced %+v\n", w.name, u.Seed, t.Transcript, u.Transcript)
			failed++
			continue
		}
		l := t.Layers
		l["runtime.gc_cycles"] = float64(u.GCCycles)
		l["trace.overhead_frac"] = t.WallS / u.WallS
		l["trace.attributed_s"] = attributed(w, t, lad)
		if w.kind != kindEngine {
			l["cluster.bytes_per_node"] = float64(u.MaxRSSKiB) * 1024 / float64(u.N)
		}
		pairs = append(pairs, l)
	}
	fmt.Printf("perfbench %s seed=%d trace=1: %d runs (warm-up and traced pairs), %d failed, %.1fs\n", w.name, seed, attempted, failed, time.Since(start).Seconds())
	res := result{Correct: failed == 0 && len(pairs) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if !res.Correct {
		return res, nil
	}
	for _, m := range perLayer {
		v, ok := lad[m.name]
		if !ok {
			xs := make([]float64, 0, len(pairs))
			for _, p := range pairs {
				xs = append(xs, p[m.name])
			}
			sort.Float64s(xs)
			_, v, _ = quartiles(xs)
		}
		fmt.Printf("  %-26s %14.6g  %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, nil
}

// attributed is the tick loop's time as the ladder prices it: each
// replayed call's single-thread cost times how often the traced run
// made it. Set beside trace.loop_s, the gap is the unattributed share;
// work the shards run in parallel can make it exceed the loop time.
func attributed(w workload, t sample, lad map[string]float64) float64 {
	tr := t.Transcript
	ticks := float64(tr.Ticks)
	barrier := 2 * ticks * lad["shard.barrier_us"] * 1e3
	if w.kind == kindEngine {
		return (t.Layers["trace.heard"]*lad["rlnc.add_ns"] +
			float64(tr.PacketsOut)*lad["rlnc.combine_ns"] +
			ticks*t.Layers["adversary.graph_us"]*1e3 + barrier) / 1e9
	}
	data, acks := float64(tr.PacketsOut), float64(tr.AcksOut)
	ns := data*(lad["rlnc.combine_ns"]+lad["wire.data_roundtrip_ns"]) +
		float64(tr.PacketsIn)*lad["rlnc.add_ns"] +
		acks*lad["wire.ack_roundtrip_ns"] +
		(data+acks)*t.Layers["cluster.send_ns"] + barrier
	return ns / 1e9
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the quartiles of sorted xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method, which
// extrapolates for fewer than three points), with the median between.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	if n%2 == 1 {
		med = xs[n/2]
	} else {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return at(1), med, at(3)
}

// checkSpec confirms BENCHMARK.json lists exactly the metrics this
// program prints, with the same units.
func checkSpec(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, perfbench reports %d", path, len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				return fmt.Errorf("%s %s metric %d is %s (%s), perfbench reports %s (%s)", path, kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", endToEnd, spec.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", perLayer, spec.PerLayer)
}
