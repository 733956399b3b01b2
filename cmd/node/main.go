// Command node runs ONE gossip node as its own OS process over a real
// UDP socket — the multi-process counterpart of cmd/cluster and
// cmd/stream, whose runtimes spawn all n nodes as goroutines. A
// cluster is then n of these processes: every process derives the same
// token set (or stream source) from the shared -seed, discovers its
// peers' socket addresses from one -bootstrap peer, gossips until its
// own rank-k decode verifies, and lingers so slower peers can finish.
// scripts/localnet.sh spins up n of them on the loopback and collects
// the per-node metric files; see DESIGN.md ("Socket transport &
// multi-process runtime").
//
// Quick start:
//
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 &
//	go run ./cmd/node -id 1 -n 3 -addr 127.0.0.1:9001 -bootstrap 127.0.0.1:9000 &
//	go run ./cmd/node -id 2 -n 3 -addr 127.0.0.1:9002 -bootstrap 127.0.0.1:9000
//
// Every process prints a LISTEN line at bind time and a DONE line at
// completion; -metrics writes a key=value file with the node's gossip
// and socket counters. -mode stream runs the windowed streaming
// runtime instead of one-shot dissemination. The -loss/-delay/-reorder
// fault-injection middlewares stack above the socket exactly as they
// do above the in-process transports, so hostile-network experiments
// compose with real packet loss; -adversary and -mutate stack the
// internal/hostile layers on top of those:
//
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 -mutate "dup:0.05,trunc:0.02"
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 -adversary rotating-path
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -debug-addr
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/udpnet"
)

// options carries every flag so tests drive run() without a process.
type options struct {
	addr      string
	bootstrap string
	id        int
	n         int
	mode      string

	k       int
	payload int
	fanout  int
	seed    int64

	window      int
	generations int

	interval time.Duration
	timeout  time.Duration
	linger   time.Duration

	loss      float64
	delay     time.Duration
	reorder   float64
	adversary string
	mutate    string

	metrics string

	trace     string
	telem     string
	debugAddr string
}

// newFlags declares every flag on a fresh FlagSet bound to the
// returned options, so tests can parse the defaults without a process.
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "UDP address to bind (host:port; port 0 = ephemeral)")
	fs.StringVar(&o.bootstrap, "bootstrap", "", "a peer's UDP address to learn the membership from (empty = this IS the bootstrap node)")
	fs.IntVar(&o.id, "id", 0, "this node's id in [0, n)")
	fs.IntVar(&o.n, "n", 3, "total number of node processes")
	fs.StringVar(&o.mode, "mode", "cluster", "runtime: cluster (one-shot dissemination) | stream (windowed generations)")
	fs.IntVar(&o.k, "k", 32, "tokens to disseminate (cluster) or generation size (stream)")
	fs.IntVar(&o.payload, "payload", 128, "token payload size in bits")
	fs.IntVar(&o.fanout, "fanout", 2, "peers contacted per emission")
	fs.Int64Var(&o.seed, "seed", 1, "shared seed; all processes must agree (tokens derive from it)")
	fs.IntVar(&o.window, "window", 4, "stream: maximum concurrent generations")
	fs.IntVar(&o.generations, "generations", 8, "stream: number of generations")
	fs.DurationVar(&o.interval, "interval", 2*time.Millisecond, "emission pacing")
	fs.DurationVar(&o.timeout, "timeout", 60*time.Second, "wall-clock cap for bootstrap and for the run")
	fs.DurationVar(&o.linger, "linger", 2*time.Second, "keep gossiping this long after local completion")
	fs.Float64Var(&o.loss, "loss", 0, "injected packet loss rate in [0,1), above the socket")
	fs.DurationVar(&o.delay, "delay", 0, "injected per-packet latency upper bound")
	fs.Float64Var(&o.reorder, "reorder", 0, "injected packet reordering rate in [0,1)")
	fs.StringVar(&o.adversary, "adversary", "", `topology adversary name[:params] (random | rotating-path | static-<topology> | tstable:<T> | tinterval:<T> | adaptive | trace:<file>)`)
	fs.StringVar(&o.mutate, "mutate", "", `hostile-packet mutation spec, e.g. "dup:0.05,stale:0.1" (ops: dup|stale|trunc|flip|xgen|all)`)
	fs.StringVar(&o.metrics, "metrics", "", "write key=value metrics to this file")
	fs.StringVar(&o.trace, "trace", "", "trace the run and render node<id>-{telemetry.txt,heatmap.svg,timeline.svg,packetflow.svg} into this directory")
	fs.StringVar(&o.telem, "telemetry", "", "trace the run and write the telemetry v1 text export to this file")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/pprof and /debug/vars on this address (host:port; port 0 = ephemeral)")
	return fs, o
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])
	// SIGTERM joins SIGINT so a `kill` (what launchers and CI send)
	// drains through the same cancellation path and still flushes the
	// metrics file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *o); err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", o.id, err)
		os.Exit(1)
	}
}

// validate checks the flags before anything is bound; every error
// names the offending flag.
func validate(o options) error {
	if _, err := cliutil.ParseMode(o.mode); err != nil {
		return err
	}
	if err := cliutil.ValidateHostPort("-addr", o.addr); err != nil {
		return err
	}
	if o.bootstrap != "" {
		if err := cliutil.ValidateHostPort("-bootstrap", o.bootstrap); err != nil {
			return err
		}
	}
	if err := cliutil.ValidateNodeID(o.id, o.n); err != nil {
		return err
	}
	return cliutil.ValidateGossip(o.n, o.k, o.payload, o.fanout, o.loss, o.reorder)
}

// run is the whole process body behind the flag surface, testable
// without forking: validate, bind, bootstrap, gossip, report.
func run(ctx context.Context, w io.Writer, o options) error {
	if err := validate(o); err != nil {
		return err
	}
	streamMode, _ := cliutil.ParseMode(o.mode) // validated above

	tr, err := udpnet.Dial(udpnet.Config{ID: o.id, Nodes: o.n, Addr: o.addr, Bootstrap: o.bootstrap})
	if err != nil {
		return err
	}
	defer tr.Close()
	fmt.Fprintf(w, "LISTEN id=%d addr=%s\n", o.id, tr.LocalAddr())

	// The recorder must exist before the adversarial wrap: the adaptive
	// adversary reads its rank scoreboard.
	var rec *telemetry.Recorder
	if o.trace != "" || o.telem != "" || cliutil.AdversaryNeedsTelemetry(o.adversary) {
		rec = telemetry.New(telemetry.Config{Nodes: o.n})
		rec.SetMeta("driver", "node")
		rec.SetMeta("id", fmt.Sprint(o.id))
		rec.SetMeta("n", fmt.Sprint(o.n))
		rec.SetMeta("mode", o.mode)
		rec.SetMeta("k", fmt.Sprint(o.k))
		rec.SetMeta("seed", fmt.Sprint(o.seed))
	}

	if o.debugAddr != "" {
		ln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return err
		}
		publishDebugVars()
		curTransport.Store(tr)
		curRecorder.Store(rec)
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(w, "DEBUG id=%d addr=%s\n", o.id, ln.Addr())
	}

	// The metrics file and telemetry exports flush on EVERY exit path —
	// signal, timeout, bootstrap failure, verification error — so a
	// killed node still leaves its partial counters for the launcher to
	// aggregate. The deferred flush is the crash path; the success path
	// flushes explicitly so write errors surface as run errors.
	kv := [][2]string{}
	add := func(key string, val any) { kv = append(kv, [2]string{key, fmt.Sprint(val)}) }
	stopSampler := func() {}
	flushed := false
	flush := func() error {
		flushed = true
		stopSampler() // exports must see a quiet recorder
		s := tr.Stats()
		add("udp_datagrams", s.Datagrams)
		add("udp_gossip", s.Gossip)
		add("udp_announces", s.Announces)
		add("udp_drop_oversize", s.DropOversize)
		add("udp_drop_truncated", s.DropTruncated)
		add("udp_drop_version", s.DropVersion)
		add("udp_drop_type", s.DropType)
		add("udp_drop_malformed", s.DropMalformed)
		add("udp_drop_inbox_full", s.DropInboxFull)
		add("udp_drop_unknown_peer", s.DropUnknownPeer)
		add("udp_write_errors", s.WriteErrors)
		if o.metrics != "" {
			if err := writeMetrics(o.metrics, o.id, kv); err != nil {
				return err
			}
		}
		return cliutil.ExportTelemetry(rec, o.trace, o.telem, fmt.Sprintf("node%d", o.id), streamMode)
	}
	defer func() {
		if !flushed {
			flush() // crash path: best-effort, the run's own error wins
		}
	}()

	// Wrap before bootstrapping so a bad middleware knob fails fast.
	// The middlewares hide the socket transport's Known method, which is
	// why the routability gate is captured from tr, not wrapped.
	wrapped, err := cliutil.WrapHostile(tr, o.delay, o.reorder, o.loss, o.seed)
	if err != nil {
		return err
	}
	// The hostile layers stack outermost; their tick clock derives from
	// the emission interval (no lockstep driver feeds them ticks here).
	wrapped, err = cliutil.WrapAdversarial(wrapped, o.adversary, o.mutate, o.n, o.seed, o.interval, rec)
	if err != nil {
		return err
	}

	// Fill the address book before gossiping: joiners pull it from the
	// bootstrap peer; the bootstrap node itself learns each joiner from
	// the pings it answers. The retry period scales with the emission
	// interval (which the launcher scales with n): n-1 joiners hammering
	// one bootstrap peer every 50ms was a measured livelock at n=1024 on
	// one core — the ping storm starved the processes it was probing.
	bootCtx, cancelBoot := context.WithTimeout(ctx, o.timeout)
	defer cancelBoot()
	if o.bootstrap != "" {
		bootEvery := 10 * o.interval
		if bootEvery < 50*time.Millisecond {
			bootEvery = 50 * time.Millisecond
		}
		go tr.BootstrapLoop(bootCtx, bootEvery)
	}
	// Wait in slices so a slow bootstrap is visible in the logs: a
	// 1k-process run that stalls with every node silent is
	// undiagnosable; one that stalls printing "known=37/1024" is not.
	for {
		wctx, cancelWait := context.WithTimeout(bootCtx, 5*time.Second)
		err := tr.WaitReady(wctx)
		cancelWait()
		if err == nil {
			break
		}
		if bootCtx.Err() != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		fmt.Fprintf(w, "BOOT id=%d known=%d/%d\n", o.id, tr.BookSize(), o.n)
	}

	// One sampling loop per process feeds the socket accounting series;
	// flush joins it (via stopSampler) so the exports see a quiet
	// recorder.
	if rec != nil {
		start := time.Now()
		sctx, scancel := context.WithCancel(ctx)
		samplerDone := make(chan struct{})
		var stopOnce sync.Once
		stopSampler = func() {
			stopOnce.Do(func() {
				scancel()
				<-samplerDone
			})
		}
		go func() {
			defer close(samplerDone)
			every := 10 * o.interval
			if every < 10*time.Millisecond {
				every = 10 * time.Millisecond
			}
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-sctx.Done():
					return
				case <-tick.C:
					s := tr.Stats()
					rec.SampleNet(time.Since(start).Milliseconds(), telemetry.NetCounters{
						Datagrams: s.Datagrams, Gossip: s.Gossip, Announces: s.Announces,
						DropOversize: s.DropOversize, DropTruncated: s.DropTruncated,
						DropVersion: s.DropVersion, DropType: s.DropType,
						DropMalformed: s.DropMalformed, DropInboxFull: s.DropInboxFull,
						DropUnknownPeer: s.DropUnknownPeer, WriteErrors: s.WriteErrors,
					})
				}
			}
		}()
		defer stopSampler()
	}

	one := cluster.SingleConfig{ID: o.id, Known: tr.Known, Linger: o.linger}
	var done bool
	if streamMode {
		m, err := stream.RunSingle(ctx, stream.Config{
			N: o.n, K: o.k, PayloadBits: o.payload,
			Window: o.window, Generations: o.generations,
			Fanout: o.fanout, Seed: o.seed, Transport: wrapped,
			Interval: o.interval, Timeout: o.timeout, Telemetry: rec,
		}, one)
		if err != nil {
			return err
		}
		done = m.Done
		add("done", m.Done)
		add("done_at_ms", m.DoneAt.Milliseconds())
		add("delivered", m.Delivered)
		add("packets_out", m.PacketsOut)
		add("packets_in", m.PacketsIn)
		add("acks_out", m.AcksOut)
		add("acks_in", m.AcksIn)
		add("bits_out", m.BitsOut)
		add("dropped", m.Dropped)
		add("innovative", m.Innovative)
		add("stale", m.Stale)
		fmt.Fprintf(w, "DONE id=%d ok=%v delivered=%d packets_out=%d\n", o.id, m.Done, m.Delivered, m.PacketsOut)
	} else {
		toks := token.RandomSet(o.k, o.payload, rand.New(rand.NewSource(o.seed)))
		m, err := cluster.RunSingle(ctx, cluster.Config{
			N: o.n, Fanout: o.fanout, Mode: cluster.Coded, Seed: o.seed, Transport: wrapped,
			Interval: o.interval, Timeout: o.timeout, Telemetry: rec,
		}, one, toks)
		if err != nil {
			return err
		}
		done = m.Done
		add("done", m.Done)
		add("done_at_ms", m.DoneAt.Milliseconds())
		add("packets_out", m.PacketsOut)
		add("packets_in", m.PacketsIn)
		add("bits_out", m.BitsOut)
		add("dropped", m.Dropped)
		add("innovative", m.Innovative)
		fmt.Fprintf(w, "DONE id=%d ok=%v innovative=%d packets_out=%d\n", o.id, m.Done, m.Innovative, m.PacketsOut)
	}
	if err := flush(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("did not complete within %v", o.timeout)
	}
	return nil
}

// The expvar surface is published once per process (expvar.Publish
// panics on duplicates, and tests drive run() repeatedly); the Funcs
// indirect through atomic holders so each run swaps in its own live
// sources. Only race-safe snapshots are exposed: udpnet.Stats reads
// atomics, Recorder.Counters is the recorder's concurrent surface.
var (
	publishOnce  sync.Once
	curTransport atomic.Pointer[udpnet.Transport]
	curRecorder  atomic.Pointer[telemetry.Recorder]
)

func publishDebugVars() {
	publishOnce.Do(func() {
		expvar.Publish("udpnet", expvar.Func(func() any {
			if tr := curTransport.Load(); tr != nil {
				return tr.Stats()
			}
			return nil
		}))
		expvar.Publish("telemetry", expvar.Func(func() any {
			return curRecorder.Load().Counters() // nil recorder → nil map
		}))
	})
}

// writeMetrics dumps the node's counters as sorted key=value lines —
// greppable, awk-able, and diff-stable for CI artifacts.
func writeMetrics(path string, id int, kv [][2]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%d\n", id)
	sorted := append([][2]string(nil), kv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for _, e := range sorted {
		fmt.Fprintf(&b, "%s=%s\n", e[0], e[1])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
