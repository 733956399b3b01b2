package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/rlnc"
	"repro/internal/wire"
)

// tracer is the outermost transport of a traced runtime run. The stack
// below it is the untraced run's stack with one counting layer slid
// under the loss decorator:
//
//	tracer → WithLoss → counter → ChanTransport
//
// Loss coins are drawn per Send, so the extra layers leave the coin
// sequence, and with it the whole transcript, unchanged. As a
// TickObserver the tracer stamps every tick start and samples inbox
// depths there; as a Transport it times and sizes every Send.
type tracer struct {
	cluster.Transport
	chans *cluster.ChanTransport
	below *counter
	n     int

	// The sharded drivers send only from their serial exchange barrier,
	// so the lock is never contended; it keeps the tracer correct for
	// any caller.
	mu      sync.Mutex
	ticks   []tickSpan
	sends   int64
	sendDur time.Duration
	bits    int64
	// data and acks count sent coded and ack packets and their bytes.
	data, acks            pktStats
	ackBits               int64
	depthSum, depthMax    int64
	depthSamples, unknown int64
}

type tickSpan struct {
	start, first, last time.Time
	sends              int
}

type pktStats struct{ count, bytes int64 }

func newTracer(n, buffer int, loss float64, lossSeed int64) *tracer {
	chans := cluster.NewChanTransport(n, buffer)
	below := &counter{Transport: chans}
	return &tracer{Transport: cluster.WithLoss(below, loss, lossSeed), chans: chans, below: below, n: n}
}

// ObserveTick implements cluster.TickObserver.
func (t *tracer) ObserveTick(tick int64) {
	now := time.Now()
	t.mu.Lock()
	t.ticks = append(t.ticks, tickSpan{start: now})
	for id := 0; id < t.n; id++ {
		d := int64(len(t.chans.Recv(id)))
		t.depthSum += d
		if d > t.depthMax {
			t.depthMax = d
		}
	}
	t.depthSamples += int64(t.n)
	t.mu.Unlock()
	cluster.ObserveTick(t.Transport, tick)
}

// Send implements cluster.Transport.
func (t *tracer) Send(from, to int, pkt []byte) bool {
	typ, bits := packetBits(pkt)
	t.mu.Lock()
	t0 := time.Now()
	ok := t.Transport.Send(from, to, pkt)
	t1 := time.Now()
	if len(t.ticks) > 0 {
		cur := &t.ticks[len(t.ticks)-1]
		if cur.sends == 0 {
			cur.first = t0
		}
		cur.last = t1
		cur.sends++
	}
	t.sends++
	t.sendDur += t1.Sub(t0)
	t.bits += bits
	switch typ {
	case wire.TypeCoded:
		t.data.count++
		t.data.bytes += int64(len(pkt))
	case wire.TypeAck:
		t.acks.count++
		t.acks.bytes += int64(len(pkt))
		t.ackBits += bits
	default:
		t.unknown++
	}
	t.mu.Unlock()
	return ok
}

// packetBits reads a marshaled packet's type and its size under the
// simulator's Bits() accounting straight from the documented wire
// layout, without decoding the body.
func packetBits(pkt []byte) (wire.Type, int64) {
	if len(pkt) < wire.HeaderBytes+4 {
		return 0, 0
	}
	typ := wire.Type(pkt[1])
	body := pkt[wire.HeaderBytes:]
	switch typ {
	case wire.TypeCoded:
		return typ, int64(binary.LittleEndian.Uint32(body[4:8]))
	case wire.TypeAck:
		ranks := int64(binary.LittleEndian.Uint32(body[4:8]))
		off := 8 + 8*ranks
		if int64(len(body)) < off+4 {
			return typ, 0
		}
		peers := int64(binary.LittleEndian.Uint32(body[off : off+4]))
		return typ, 32 + 64*(ranks+peers)
	}
	return typ, 0
}

// check confirms the tracer saw exactly the sends and bits the runtime
// reports, so the figures it derives describe the same traffic.
func (t *tracer) check(sends, bits int64) error {
	switch {
	case t.unknown > 0:
		return fmt.Errorf("trace: %d sends of unexpected packet types", t.unknown)
	case t.sends != sends:
		return fmt.Errorf("trace: transport saw %d sends, runtime reports %d", t.sends, sends)
	case t.bits != bits:
		return fmt.Errorf("trace: transport counted %d bits, runtime reports %d", t.bits, bits)
	}
	return nil
}

// layers turns the trace into per-layer figures. The last tick has no
// emit phase and is cut off by completion, so it ends at loop start +
// elapsed and is left out of the tick-time distribution. prefix names
// the runtime the tick-phase figures belong to ("cluster" or "stream").
func (t *tracer) layers(elapsed time.Duration, prefix string) map[string]float64 {
	out := map[string]float64{}
	var parallel, exchange time.Duration
	var tickMs []float64
	for i, ts := range t.ticks {
		end := t.ticks[0].start.Add(elapsed)
		if i+1 < len(t.ticks) {
			end = t.ticks[i+1].start
			tickMs = append(tickMs, float64(end.Sub(ts.start))/1e6)
		}
		if ts.sends == 0 {
			parallel += end.Sub(ts.start)
			continue
		}
		parallel += ts.first.Sub(ts.start)
		exchange += ts.last.Sub(ts.first)
	}
	sort.Float64s(tickMs)
	if prefix == "cluster" {
		out["cluster.parallel_s"] = parallel.Seconds()
		out["cluster.exchange_s"] = exchange.Seconds()
		out["cluster.tick_ms_p50"] = quantile(tickMs, 0.5)
		out["cluster.tick_ms_max"] = quantile(tickMs, 1)
	} else {
		out["stream.exchange_s"] = exchange.Seconds()
		out["stream.tick_ms_p50"] = quantile(tickMs, 0.5)
		out["stream.tick_ms_p99"] = quantile(tickMs, 0.99)
		out["stream.ack_bits_frac"] = float64(t.ackBits) / float64(t.bits)
	}
	sends := float64(t.sends)
	out["cluster.send_ns"] = float64(t.sendDur.Nanoseconds()) / sends
	out["cluster.loss_drop_frac"] = float64(t.sends-t.below.sends) / sends
	out["cluster.queue_drop_frac"] = float64(t.below.rejected) / sends
	out["cluster.inbox_depth_mean"] = float64(t.depthSum) / float64(t.depthSamples)
	out["cluster.inbox_depth_max"] = float64(t.depthMax)
	out["wire.data_bytes"] = meanBytes(t.data)
	out["wire.ack_bytes"] = meanBytes(t.acks)
	return out
}

func meanBytes(p pktStats) float64 {
	if p.count == 0 {
		return 0
	}
	return float64(p.bytes) / float64(p.count)
}

// counter sits directly above the channel transport, below the loss
// decorator: every Send it sees survived the loss coin, and every one
// it sees refused was a full inbox.
type counter struct {
	cluster.Transport
	sends, rejected int64
}

func (c *counter) Send(from, to int, pkt []byte) bool {
	c.sends++
	ok := c.Transport.Send(from, to, pkt)
	if !ok {
		c.rejected++
	}
	return ok
}

// tracedNode times one broadcast node's Send and Receive and counts the
// innovative share of what it hears. The engine calls each node from
// one shard worker at a time, so the counters need no lock.
type tracedNode struct {
	*rlnc.BroadcastNode
	sends, recvs, heard, innovative int64
	sendDur, recvDur                time.Duration
}

func (n *tracedNode) Send(round int) dynnet.Message {
	t0 := time.Now()
	m := n.BroadcastNode.Send(round)
	n.sendDur += time.Since(t0)
	n.sends++
	return m
}

func (n *tracedNode) Receive(round int, msgs []dynnet.Message) {
	before := n.Span().Rank()
	t0 := time.Now()
	n.BroadcastNode.Receive(round, msgs)
	n.recvDur += time.Since(t0)
	n.recvs++
	n.heard += int64(len(msgs))
	n.innovative += int64(n.Span().Rank() - before)
}

// tracedAdversary times topology generation and sizes each topology.
type tracedAdversary struct {
	inner        dynnet.Adversary
	calls, edges int64
	dur          time.Duration
}

func (a *tracedAdversary) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	t0 := time.Now()
	g := a.inner.Graph(round, nodes)
	a.dur += time.Since(t0)
	a.calls++
	a.edges += int64(g.M())
	return g
}

func engineLayers(nodes []*tracedNode, adv *tracedAdversary, steps []time.Duration, rounds int, m dynnet.Metrics) map[string]float64 {
	var sends, recvs, heard, innov int64
	var sendDur, recvDur time.Duration
	for _, n := range nodes {
		sends += n.sends
		recvs += n.recvs
		heard += n.heard
		innov += n.innovative
		sendDur += n.sendDur
		recvDur += n.recvDur
	}
	stepMs := make([]float64, len(steps))
	for i, d := range steps {
		stepMs[i] = float64(d) / 1e6
	}
	sort.Float64s(stepMs)
	return map[string]float64{
		"dynnet.step_ms_p50":    quantile(stepMs, 0.5),
		"dynnet.step_ms_p99":    quantile(stepMs, 0.99),
		"dynnet.node_send_ns":   float64(sendDur.Nanoseconds()) / float64(sends),
		"dynnet.node_recv_ns":   float64(recvDur.Nanoseconds()) / float64(recvs),
		"dynnet.msgs_per_round": float64(m.Messages) / float64(rounds),
		"adversary.graph_us":    float64(adv.dur.Nanoseconds()) / 1e3 / float64(adv.calls),
		"graph.edges_per_round": float64(adv.edges) / float64(adv.calls),
		"rlnc.useful_frac":      float64(innov) / float64(heard),
		// Not reported: attributed() prices the adds with it.
		"trace.heard": float64(heard),
	}
}

// quantile returns the q-quantile of sorted xs by the nearest-rank
// rule (q=1 is the maximum); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
