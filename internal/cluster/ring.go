package cluster

// bufRing is a per-node ring of reusable packet buffers — the explicit,
// sync.Pool-free recycling scheme of the zero-allocation gossip hot
// path. Ownership follows the packet flow, which is what makes reuse
// safe without locks or reference counting:
//
//   - An emitter Gets a buffer, marshals into it and hands it to
//     Transport.Send. A true return transfers ownership to the
//     transport (the buffer travels through channels, delay lines or
//     reorder holds untouched); a false return means the packet was
//     dropped before delivery and the sender Puts the buffer straight
//     back.
//   - A receiver that has fully consumed a buffer drained from its
//     inbox (decoded it into a scratch Packet, absorbed the contents)
//     Puts it into its *own* ring.
//
// Every ring is therefore touched by exactly one goroutine — the node
// that owns it — in both the lockstep and the async drivers: no locks,
// no cross-goroutine races, and under the single-threaded lockstep
// driver the recycling is fully deterministic (buffer identity never
// influences protocol decisions, so transcripts are bit-identical to
// the allocating path either way). Buffers migrate between nodes with
// the packets that carried them; in steady-state gossip every node
// receives about as many packets as it sends, so rings stay stocked and
// the emission pipeline stops allocating. A node that momentarily sends
// more than it receives falls back to fresh allocations (Get returns
// nil); one that receives more than it sends lets the surplus go to the
// GC (Put over capacity discards).
type bufRing struct {
	bufs [][]byte
}

// defaultRingCap is the per-node ring capacity the drivers use: enough
// to cover several ticks of fanout emissions plus acks, small enough
// that a node's parked buffer memory stays trivial.
const defaultRingCap = 64

// Get pops a recycled buffer, or returns nil when the ring is empty
// (append will then allocate, exactly as the pre-ring path did).
func (r *bufRing) Get() []byte {
	if n := len(r.bufs); n > 0 {
		b := r.bufs[n-1]
		r.bufs[n-1] = nil
		r.bufs = r.bufs[:n-1]
		return b
	}
	return nil
}

// Put recycles a buffer; over capacity it is discarded to the GC. nil
// is ignored so callers can Put unconditionally.
func (r *bufRing) Put(b []byte) {
	if b == nil || len(r.bufs) == cap(r.bufs) {
		return
	}
	r.bufs = append(r.bufs, b)
}
