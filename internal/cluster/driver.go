package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Node is the protocol half of a gossip node: what the driver asks of
// this package's coded and forward gossipers and of internal/stream's
// windowed generations. The driver owns everything else — the clock,
// the inbox drain, hellos and membership views, peer sampling, the
// send-or-defer path, completion, churn — so a protocol states only
// how it differs. Methods are called only by the goroutine (or
// lockstep slot) currently driving the node.
type Node interface {
	// Prime runs once before the node's first tick: before tick 1 under
	// lockstep, at the start of every node goroutine otherwise.
	Prime()
	// Recv absorbs one decoded gossip packet (hellos never reach it)
	// and reports whether it made progress. The packet is the driver's
	// reused scratch: copy anything retained past the call.
	Recv(p *wire.Packet) bool
	// Emit fills one emission slot: the lockstep emit phase and every
	// async ticker beat.
	Emit()
	// Push reacts to a receipt that made progress (the async loop
	// only).
	Push()
	// Complete reports whether the node holds everything the run
	// disseminates.
	Complete() bool
	// Sample returns the rank and watermark columns of the node's
	// telemetry time series.
	Sample() (rank, mark int)
	// Rank is the progress the targeted-churn oracle (crashmax,
	// crashfrontier) orders nodes by.
	Rank() int
	// Restart readies a crashed node's persisted state to rejoin.
	Restart()
	// Err reports a protocol failure; the driver aborts the run on it.
	Err() error
	// Verify checks a completed node's final state against the
	// originals: at the end of a completed Drive for every live node,
	// and at the completion edge under RunNode.
	Verify() error
}

// Peer is one node's share of the driver: its identity, clock,
// membership view, randomness, metrics and packet plumbing. The driver
// builds it and hands it to the protocol's spawn function, which
// embeds it and points M at the node's metrics. Like the Node, a Peer
// is only ever touched by the goroutine (or lockstep slot) currently
// driving it, which is what keeps churn restarts race-free: the old
// goroutine fully exits before the state passes to the next
// incarnation.
type Peer struct {
	ID int
	// View is the node's membership view; peer sampling runs over it.
	View *View
	// Rng is the node's seeded randomness (coding coins and peer
	// choice), derived from the run seed and ID alone so separate
	// processes agree on it.
	Rng *rand.Rand
	// Tx is the emission scratch the protocol fills before Send.
	Tx wire.Packet
	// M is the node's metrics; spawn must set it.
	M *NodeMetrics
	// Tel traces the node's protocol events; nil is the disabled state
	// (every recording call is a nil-receiver no-op).
	Tel *telemetry.Recorder
	// Now is the node's clock in view-stamp units: the lockstep tick,
	// or nanoseconds since the run started. The driver sets it before
	// it hands the node packets or an emission slot.
	Now int64

	tr   Transport
	rx   wire.Packet
	ring *bufRing
	// out, when non-nil, routes emissions into the node's shard outbox
	// instead of the transport; the sharded lockstep barrier replays
	// them serially (see outbox.go). Nil on the async, single-node and
	// shards=1 paths, which send inline.
	out *outbox
	// known optionally gates peer sampling on routability: a transport
	// with an address book (udpnet) may know fewer peers than the view
	// believes live, and pushing to an unroutable peer only burns the
	// emission. Nil (every in-process run) means one View.Pick draw
	// exactly, which is what keeps the lockstep golden transcripts
	// byte-stable.
	known func(int) bool
	// churn enables the nothing-to-say hello in Gossip.
	churn bool
}

// recv decodes one drained inbox buffer into the rx scratch, recycles
// the buffer into the node's own ring (wire.UnmarshalInto copies what
// it keeps, and a malformed packet's buffer is still a good buffer),
// folds hellos into the view, and hands gossip packets to the node. It
// reports whether the node made progress.
func (p *Peer) recv(nd Node, raw []byte) bool {
	err := wire.UnmarshalInto(&p.rx, raw)
	p.ring.Put(raw)
	if err != nil {
		return false
	}
	if p.rx.Env.Type != wire.TypeHello {
		return nd.Recv(&p.rx)
	}
	sender := int(p.rx.Env.Sender)
	if p.rx.Hello.Leaving {
		p.Tel.Event(p.ID, p.Now, telemetry.KindRecvHello, int64(sender), 1, 0)
		p.View.Remove(sender)
		return false
	}
	p.Tel.Event(p.ID, p.Now, telemetry.KindRecvHello, int64(sender), 0, 0)
	p.View.Mark(sender, p.Now)
	for _, pid := range p.rx.Hello.Peers {
		// Third-party introductions never refresh a known peer's stamp
		// (see View.Introduce), or suspicion could never evict a crashed
		// node that peers keep listing.
		p.View.Introduce(int(pid), p.Now)
	}
	return false
}

// Pick samples a live peer for an emission, or -1 when there is none.
// With a known gate it redraws a bounded number of times to land on a
// routable peer, returning -1 when the book is still too empty;
// without one it is exactly one View.Pick draw.
func (p *Peer) Pick() int {
	peer := p.View.Pick(p.Rng, p.Now)
	if p.known == nil {
		return peer
	}
	for tries := 0; tries < 4 && peer >= 0 && !p.known(peer); tries++ {
		peer = p.View.Pick(p.Rng, p.Now)
	}
	if peer >= 0 && !p.known(peer) {
		return -1
	}
	return peer
}

// Send marshals Tx into a recycled ring buffer and sends it to peer
// to, counting it by type: hellos in HellosOut, acks nowhere here (the
// stream protocol counts its own), everything else in PacketsOut, and
// all of them in BitsOut. On a sharded lockstep tick the send is
// deferred to the shard outbox instead; counters and bytes are per-node
// state and are captured now, in parallel, while the transport Send and
// its telemetry happen at the serial barrier in the serial driver's
// order.
func (p *Peer) Send(to int) {
	tx := &p.Tx
	ev, arg, bits := telemetry.KindSend, int64(tx.Env.Epoch), int64(tx.Bits())
	p.M.BitsOut += bits
	switch tx.Env.Type {
	case wire.TypeHello:
		p.M.HellosOut++
		ev, arg, bits = telemetry.KindSendHello, 0, 0
		if tx.Hello.Leaving {
			arg = 1
		}
	case wire.TypeAck:
		ev, bits = telemetry.KindSendAck, 0
	default:
		p.M.PacketsOut++
	}
	e := outEntry{from: p.ID, to: to, ev: ev, arg: arg, bits: bits, buf: tx.AppendTo(p.ring.Get()[:0])}
	if p.out != nil {
		p.out.add(e)
		return
	}
	p.transmit(e, p.Now)
}

// transmit performs one Send against the transport with its send
// telemetry; a refused Send counts a drop and returns the buffer to
// the ring.
func (p *Peer) transmit(e outEntry, now int64) {
	p.Tel.Event(p.ID, now, e.ev, int64(e.to), e.arg, e.bits)
	if !p.tr.Send(p.ID, e.to, e.buf) {
		p.M.Dropped++
		p.Tel.Event(p.ID, now, telemetry.KindDrop, int64(e.to), 0, 0)
		p.ring.Put(e.buf)
	}
}

// Gossip pushes up to fanout packets, each drawn into Tx by fill, to
// random peers. A node with nothing to say on the first draw (a joiner
// before its first packet) instead announces itself to one random peer
// in churn runs, so peers learn to push to it even if its join-time
// hello burst was lost.
func (p *Peer) Gossip(fanout int, fill func(tx *wire.Packet) bool) {
	if p.View.LiveCount() < 2 {
		return
	}
	for f := 0; f < fanout; f++ {
		if !fill(&p.Tx) {
			if f == 0 && p.churn {
				if peer := p.Pick(); peer >= 0 {
					p.buildHello(false)
					p.Send(peer)
				}
			}
			return
		}
		peer := p.Pick()
		if peer < 0 {
			return
		}
		p.Send(peer)
	}
}

// buildHello fills Tx with a membership announcement carrying the
// node's current live view.
func (p *Peer) buildHello(leaving bool) {
	p.Tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeHello, Sender: uint32(p.ID), Epoch: 0}
	p.Tx.Hello.Leaving = leaving
	p.Tx.Hello.Peers = p.View.AppendPeers(p.Tx.Hello.Peers[:0])
}

// helloAll announces to every peer currently in the view: the
// join/restart introduction burst, or the graceful-leave goodbye.
//
// It always sends inline, even on a sharded run: helloAll only runs
// from the serial churn phase (lockstep) or the async drivers, and the
// serial engine delivers churn-phase hellos to inboxes drained the
// same tick — routing them through the shard outbox would defer them
// past the drain and change the transcript.
func (p *Peer) helloAll(leaving bool) {
	out := p.out
	p.out = nil
	defer func() { p.out = out }()
	p.buildHello(leaving)
	for _, pid := range p.Tx.Hello.Peers {
		if int(pid) != p.ID {
			p.Send(int(pid))
		}
	}
}

// sample records one telemetry time-series point for the node: the
// protocol's rank and watermark, inbox backlog and live-view size.
// Lockstep points go through SampleTick's thinning. A no-op without a
// recorder.
func (p *Peer) sample(nd Node, lockstep bool) {
	if p.Tel == nil {
		return
	}
	rank, mark := nd.Sample()
	inbox, view := len(p.tr.Recv(p.ID)), p.View.LiveCount()
	if lockstep {
		p.Tel.SampleTick(p.ID, p.Now, rank, mark, inbox, view)
	} else {
		p.Tel.Sample(p.ID, p.Now, rank, mark, inbox, view)
	}
}

// driver is the run state shared by the lockstep and async drivers
// and RunNode: the node table (indexed by id over the whole id
// space, nil until spawned), the live set, and the churner applying
// the membership script.
type driver struct {
	cfg   Config
	tr    Transport
	spawn func(p *Peer, joiner bool) Node
	peers []*Peer
	nodes []Node
	live  []bool
	ch    *Churner
	// ranks backs the targeted-crash oracle (ChurnCrashMax /
	// ChurnCrashFrontier): the driver publishes each node's Rank here
	// after every step that can move it, and the churner reads it when
	// selecting victims — atomically, because the async churn
	// controller runs on its own goroutine. Nil unless the schedule
	// HasTargeted, so untargeted runs pay nothing.
	ranks []atomic.Int64
	// exec partitions the id space for the lockstep driver's parallel
	// phases (nil otherwise); outs holds one private outbox per shard,
	// nil when exec has a single shard (serial engine, inline sends).
	exec *shard.Executor
	outs []*outbox

	completed bool
	ticks     int
}

func newDriver(cfg Config, spawn func(p *Peer, joiner bool) Node) *driver {
	maxN := cfg.maxNodes()
	return &driver{
		cfg:   cfg,
		tr:    cfg.Transport,
		spawn: spawn,
		peers: make([]*Peer, maxN),
		nodes: make([]Node, maxN),
		live:  make([]bool, maxN),
		ch:    NewChurner(cfg.Churn, cfg.N, maxN, cfg.Seed),
	}
}

// add builds (or wipes) the node for id: a Peer whose view is a
// snapshot of the nodes currently live (a joiner's contact list),
// handed to the protocol's spawn.
func (d *driver) add(id int, joiner bool, now int64) (*Peer, Node) {
	p := &Peer{
		ID:    id,
		View:  NewView(id, len(d.peers)),
		Rng:   rand.New(rand.NewSource(d.cfg.Seed + 7919*int64(id) + 1)),
		Tel:   d.cfg.Telemetry,
		Now:   now,
		tr:    d.tr,
		ring:  &bufRing{bufs: make([][]byte, 0, defaultRingCap)},
		churn: d.ch != nil,
	}
	for pid, l := range d.live {
		if l {
			p.View.Mark(pid, now)
		}
	}
	if d.outs != nil {
		p.out = d.outs[d.exec.ShardOf(id)]
	}
	nd := d.spawn(p, joiner)
	p.M.Spawned = true
	p.M.Live = true
	d.peers[id], d.nodes[id] = p, nd
	d.publish(id)
	return p, nd
}

// publish refreshes id's slot of the targeted-crash scoreboard.
func (d *driver) publish(id int) {
	if d.ranks != nil {
		d.ranks[id].Store(int64(d.nodes[id].Rank()))
	}
}

func (d *driver) firstErr() error {
	for _, nd := range d.nodes {
		if nd != nil {
			if err := nd.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Drive runs the nodes spawn builds under the driver cfg selects — the
// deterministic lockstep engine (sharded when cfg.Shards > 1) or the
// goroutine-per-node async runtime — over cfg.Transport, which must be
// non-nil and which Drive closes before returning. The initial members
// 0..N-1 are spawned with joiner false, churn joiners with joiner true;
// spawn must set p.M. On a completed run every live node is verified
// before Drive returns. elapsed is the wall clock from the first tick,
// so node construction is not part of it.
func Drive(ctx context.Context, cfg Config, spawn func(p *Peer, joiner bool) Node) (completed bool, ticks int, elapsed time.Duration, err error) {
	d := newDriver(cfg, spawn)
	defer d.tr.Close()
	maxN := len(d.peers)
	if cfg.Churn.HasTargeted() {
		d.ranks = make([]atomic.Int64, maxN)
		d.ch.SetRank(func(id int) int { return int(d.ranks[id].Load()) })
	}
	if cfg.Lockstep {
		d.exec = shard.New(maxN, cfg.shards())
		if d.exec.Shards() > 1 {
			d.outs = make([]*outbox, d.exec.Shards())
			for i := range d.outs {
				d.outs[i] = &outbox{}
			}
		}
	}
	for i := 0; i < cfg.N; i++ {
		d.live[i] = true
	}
	for i := 0; i < cfg.N; i++ {
		d.add(i, false, 0)
	}

	start := time.Now()
	if cfg.Lockstep {
		err = d.runLockstep(ctx)
	} else {
		err = d.runAsync(ctx, start)
	}
	elapsed = time.Since(start)
	if err == nil && d.completed {
		for id, nd := range d.nodes {
			if nd != nil && d.peers[id].M.Live {
				if err = nd.Verify(); err != nil {
					break
				}
			}
		}
	}
	return d.completed, d.ticks, elapsed, err
}

// complete records DoneTick for nodes that finished by tick and
// reports whether every live node is done with no membership additions
// pending.
func (d *driver) complete(tick int) bool {
	all := true
	for id, nd := range d.nodes {
		if nd == nil {
			continue
		}
		m := d.peers[id].M
		if !m.Done && nd.Complete() {
			m.Done = true
			m.DoneTick = tick
		}
		if d.live[id] {
			all = all && m.Done
		}
	}
	return all && !d.ch.PendingAdds()
}

// runLockstep is the deterministic driver: per tick, churn events
// apply, every live node drains its inbox in id order, completion is
// recorded, then every live node emits. With a seeded Config the whole
// run — middleware coin flips, churn victims, everything — is a pure
// function of the seed; context cancellation (checked once per tick)
// only ever cuts a run short, it cannot change the ticks that did
// execute.
//
//	tick t:  observe ─▶ churn ─▶ ║ sample+drain ║ ─▶ complete? ─▶ ║ emit ║ ─▶ flush
//	         (serial)   (serial)   (per shard)        (serial)       (per shard)  (serial)
//
// With Config.Shards > 1 the per-node phases fan out across d.exec's
// workers — each touches only state owned by its id range — while
// everything order-sensitive stays serial at the barriers: tick
// observation, churn, the completion scan, and the outbox replay that
// performs the actual Sends in ascending id order (see outbox.go). The
// phase boundaries are identical at every shard count, which is what
// the bit-equality property tests pin. Node errors are checked after
// the drain and after the flush.
func (d *driver) runLockstep(ctx context.Context) error {
	for id, nd := range d.nodes {
		if nd != nil {
			nd.Prime()
			d.publish(id)
		}
	}
	if err := d.firstErr(); err != nil {
		return err
	}
	if d.complete(0) {
		d.completed = true
		return nil
	}
	maxTicks := d.cfg.maxTicks()
	for tick := 1; tick <= maxTicks; tick++ {
		select {
		case <-ctx.Done():
			d.ticks = tick - 1
			return nil
		default:
		}
		ObserveTick(d.tr, int64(tick))
		for _, op := range d.ch.PopUntil(tick, d.live) {
			d.applyLockstep(op, tick)
		}
		d.exec.Run(func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				nd := d.nodes[id]
				if nd == nil || !d.live[id] {
					continue
				}
				p := d.peers[id]
				p.Now = int64(tick)
				// Sample before the drain so inbox depth shows the backlog
				// queued by the previous emit phase.
				p.sample(nd, true)
				inbox := d.tr.Recv(id)
				for drained := false; !drained; {
					select {
					case raw := <-inbox:
						p.recv(nd, raw)
					default:
						drained = true
					}
				}
				d.publish(id)
			}
		})
		if err := d.firstErr(); err != nil {
			return err
		}
		if d.complete(tick) {
			d.completed = true
			d.ticks = tick
			return nil
		}
		d.exec.Run(func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				if nd := d.nodes[id]; nd != nil && d.live[id] {
					nd.Emit()
					d.publish(id)
				}
			}
		})
		d.flush(int64(tick))
		if err := d.firstErr(); err != nil {
			return err
		}
	}
	d.ticks = maxTicks
	return nil
}

// flush is the exchange barrier of a sharded tick: it replays every
// shard's deferred emissions against the real transport in (shard,
// node id, emission order) order — ascending node id, exactly the
// serial driver's send order — performing the middleware-visible Send,
// the send/drop telemetry, and the drop accounting that could not run
// in parallel. A no-op on the serial engine (outs is nil).
func (d *driver) flush(now int64) {
	for _, ob := range d.outs {
		for _, e := range ob.entries {
			d.peers[e.from].transmit(e, now)
		}
		ob.reset()
	}
}

// applyLockstep executes one churn operation under the lockstep
// driver. The churner has already flipped d.live.
func (d *driver) applyLockstep(op ChurnOp, tick int) {
	now := int64(tick)
	tel := d.cfg.Telemetry
	switch op.Kind {
	case ChurnJoin, ChurnRejoin:
		p, _ := d.add(op.ID, true, now)
		p.M.Done = false
		p.M.DoneTick = 0
		p.M.JoinTick = tick
		tel.Event(op.ID, now, telemetry.KindJoin, 0, 0, 0)
		p.helloAll(false)
	case ChurnRestart:
		p := d.peers[op.ID]
		p.Now = now
		d.nodes[op.ID].Restart()
		p.M.Live = true
		p.M.JoinTick = tick
		tel.Event(op.ID, now, telemetry.KindRestart, 0, 0, 0)
		p.helloAll(false)
	case ChurnLeave:
		p := d.peers[op.ID]
		p.Now = now
		tel.Event(op.ID, now, telemetry.KindLeave, 0, 0, 0)
		p.helloAll(true)
		p.M.Live = false
	case ChurnCrash:
		tel.Event(op.ID, now, telemetry.KindCrash, 0, 0, 0)
		d.peers[op.ID].M.Live = false
	}
}

// batchAdds reports whether a popped churn batch contains any
// membership-adding operation (join, restart, rejoin).
func batchAdds(ops []ChurnOp) bool {
	for _, op := range ops {
		switch op.Kind {
		case ChurnJoin, ChurnRestart, ChurnRejoin:
			return true
		}
	}
	return false
}

// tracker is the async driver's completion accounting for a changing
// population: it re-evaluates "is every live node done, with no
// membership additions pending" under one mutex, which node goroutines
// update on completion and the churn controller updates on every
// membership change.
type tracker struct {
	mu          sync.Mutex
	peers       []*Peer
	live        []bool
	addsPending bool
	allDone     chan struct{}
	closed      bool
}

// markDone records a node's completion edge. Done is only set by the
// node's own goroutine (and cleared by the churn controller while no
// goroutine runs the node), so the owner may test it without the lock.
func (t *tracker) markDone(m *NodeMetrics, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m.Done = true
	m.DoneAt = at
	t.check()
}

// check closes allDone when the run is complete. Callers hold mu.
func (t *tracker) check() {
	if t.closed || t.addsPending {
		return
	}
	for id, l := range t.live {
		if l && !t.peers[id].M.Done {
			return
		}
	}
	t.closed = true
	close(t.allDone)
}

// loop is the async node body, shared by every node goroutine of
// runAsync and by RunNode's one node: ticker-paced emission plus an
// immediate Push after every receipt that made progress, with the
// clock in nanoseconds since start. A node announcing itself (a joiner
// or restart) says hello to its view before Prime. After every step
// the node's rank is published and Err is checked; at the node's
// completion edge (Complete with Done still unset) done records
// completion at the given offset from start, and may fail the loop with
// its error. On cancellation a node whose leaving flag is set says
// goodbye before loop returns nil.
func (d *driver) loop(ctx context.Context, id int, start time.Time, announce bool, leaving *atomic.Bool, done func(at time.Duration) error) error {
	p, nd := d.peers[id], d.nodes[id]
	since := func() int64 { return int64(time.Since(start)) }
	step := func() error {
		d.publish(id)
		if err := nd.Err(); err != nil {
			return err
		}
		if p.M.Done || !nd.Complete() {
			return nil
		}
		return done(time.Since(start))
	}
	p.Now = since()
	if announce {
		p.helloAll(false)
	}
	nd.Prime()
	if err := step(); err != nil { // n == 1, or a node seeded with everything
		return err
	}
	inbox := d.tr.Recv(id)
	ticker := time.NewTicker(d.cfg.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			if leaving != nil && leaving.Load() {
				p.Now = since()
				p.helloAll(true)
			}
			return nil
		case raw := <-inbox:
			p.Now = since()
			if !p.recv(nd, raw) {
				continue
			}
			if err := step(); err != nil {
				return err
			}
			nd.Push()
		case <-ticker.C:
			p.Now = since()
			p.sample(nd, false)
			nd.Emit()
			if err := step(); err != nil { // emission-side progress can finish a node
				return err
			}
		}
	}
}

// runAsync is the goroutine-per-node execution: every node runs loop,
// with a churn controller goroutine applying membership events at
// At×Interval wall offsets — canceling crashed/leaving nodes (and
// joining on their exit before flipping liveness, so node state never
// has two owners) and spawning joiners. A node error is reported on
// errCh and cancels the run.
func (d *driver) runAsync(ctx context.Context, start time.Time) error {
	cfg := d.cfg
	ctx, cancel := context.WithTimeout(ctx, cfg.timeout())
	defer cancel()

	maxN := len(d.peers)
	tk := &tracker{peers: d.peers, live: d.live, addsPending: d.ch.PendingAdds(), allDone: make(chan struct{})}
	// Sized so no failing node goroutine ever blocks on the report.
	errCh := make(chan error, maxN)
	cancels := make([]context.CancelFunc, maxN)
	exited := make([]chan struct{}, maxN)
	leaving := make([]atomic.Bool, maxN)
	since := func() int64 { return int64(time.Since(start)) }

	var wg sync.WaitGroup
	spawnNode := func(id int, announce bool) {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		cancels[id] = nodeCancel
		stop := make(chan struct{})
		exited[id] = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			m := d.peers[id].M
			err := d.loop(nodeCtx, id, start, announce, &leaving[id], func(at time.Duration) error {
				tk.markDone(m, at)
				return nil
			})
			if err != nil {
				errCh <- err
				cancel()
			}
		}()
	}
	for id := 0; id < cfg.N; id++ {
		spawnNode(id, false)
	}

	if d.ch != nil {
		wg.Add(1)
		go func() { // churn controller
			defer wg.Done()
			for {
				at, ok := d.ch.NextAt()
				if !ok {
					return
				}
				timer := time.NewTimer(time.Until(start.Add(time.Duration(at) * cfg.interval())))
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case <-timer.C:
				}
				tk.mu.Lock()
				ops := append([]ChurnOp(nil), d.ch.PopUntil(at, tk.live)...)
				// Completion stays blocked until this batch's adds are
				// applied too: PopUntil already flipped liveness, but a
				// restart/rejoin below must reset its node's stale Done
				// before any check() may trust the live set.
				tk.addsPending = d.ch.PendingAdds() || batchAdds(ops)
				tk.mu.Unlock()
				for _, op := range ops {
					// Churn events are recorded here, where the node's
					// goroutine is provably not running (after its exit, or
					// before its spawn), preserving single-owner rings.
					tel := cfg.Telemetry
					switch op.Kind {
					case ChurnCrash, ChurnLeave:
						if op.Kind == ChurnLeave {
							leaving[op.ID].Store(true)
						}
						cancels[op.ID]()
						<-exited[op.ID]
						leaving[op.ID].Store(false)
						if op.Kind == ChurnLeave {
							tel.Event(op.ID, since(), telemetry.KindLeave, 0, 0, 0)
						} else {
							tel.Event(op.ID, since(), telemetry.KindCrash, 0, 0, 0)
						}
						tk.mu.Lock()
						d.peers[op.ID].M.Live = false
						tk.check()
						tk.mu.Unlock()
					case ChurnJoin, ChurnRejoin:
						tk.mu.Lock()
						p, _ := d.add(op.ID, true, since())
						p.M.Done = false
						p.M.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, since(), telemetry.KindJoin, 0, 0, 0)
						spawnNode(op.ID, true)
					case ChurnRestart:
						tk.mu.Lock()
						m := d.peers[op.ID].M
						d.nodes[op.ID].Restart()
						m.Live = true
						m.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, since(), telemetry.KindRestart, 0, 0, 0)
						spawnNode(op.ID, true)
					}
				}
				tk.mu.Lock()
				tk.addsPending = d.ch.PendingAdds()
				tk.check() // e.g. a restarted already-done node closes the run
				tk.mu.Unlock()
			}
		}()
	}

	var err error
	select {
	case <-tk.allDone:
		d.completed = true
	case err = <-errCh:
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	if err == nil {
		select {
		case err = <-errCh:
		default:
		}
	}
	return err
}
