package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/token"
)

// SingleConfig holds what one node of a multi-process run needs beyond
// the run's own Config: there is no driver to spawn peers, so the
// other N-1 nodes are separate processes reachable only through
// Config.Transport. Every process must agree on the Config's N, Seed
// and protocol parameters for dissemination to verify.
type SingleConfig struct {
	// ID is this node's id in [0, N).
	ID int
	// Known optionally gates peer sampling on routability: a transport
	// with an address book (udpnet) may know fewer peers than the view
	// believes live, and pushing to an unroutable peer only burns the
	// emission. Nil leaves sampling ungated. Middlewares hide the
	// socket's own method, so pass it explicitly (udpnet.Transport.Known).
	Known func(id int) bool
	// Linger keeps the node gossiping after its own completion so that
	// slower peers still receive combinations — the multi-process
	// equivalent of the in-process run ending only when every node is
	// done (default 2s; the launcher usually kills lingering nodes once
	// all have reported DONE).
	Linger time.Duration
}

func (c SingleConfig) linger() time.Duration {
	if c.Linger > 0 {
		return c.Linger
	}
	return 2 * time.Second
}

// RunSingle runs ONE node of an N-node cluster dissemination: the
// cmd/node process body. It seeds the node's stride-N share of toks,
// gossips over cfg.Transport until the node holds all of them (then
// verifies the decoded tokens against the originals), keeps emitting
// for the linger window so peers can finish too, and returns the
// node's metrics. A timeout or context cancellation before completion
// returns with Done == false and a nil error — the caller decides
// whether an incomplete run is a failure. The returned error is
// reserved for misconfiguration and verification failures.
func RunSingle(ctx context.Context, cfg Config, one SingleConfig, toks []token.Token) (NodeMetrics, error) {
	var m NodeMetrics
	if err := checkRun(cfg.N, cfg.Mode, toks); err != nil {
		return m, err
	}
	err := RunNode(ctx, cfg, one, func(p *Peer, _ bool) Node {
		return newMember(p, cfg.Mode, toks, cfg.N, true, cfg.fanout(), &m)
	})
	return m, err
}

// RunNode is the single-node driver behind both RunSingle functions
// (this package's and internal/stream's): it runs node one.ID, built by
// spawn, on the async driver's node loop over cfg.Transport until the
// context ends, cfg's timeout expires, or the linger window after the
// node's own completion runs out. The node is verified at its
// completion edge, before lingering, so a corrupt decode fails loudly
// instead of gossiping on. A single-node run is async and churnless:
// Lockstep, Shards > 1 and Churn are rejected. RunNode does NOT close
// the transport: in the multi-process shape it is the process's
// socket, owned by the caller, and typically outlives the gossip run
// (metric scraping still uses its counters).
func RunNode(ctx context.Context, cfg Config, one SingleConfig, spawn func(p *Peer, joiner bool) Node) error {
	switch {
	case one.ID < 0 || one.ID >= cfg.N:
		return fmt.Errorf("cluster: node id %d outside [0, %d)", one.ID, cfg.N)
	case cfg.Transport == nil:
		return fmt.Errorf("cluster: a single-node run needs a Transport (the process's socket)")
	case cfg.Lockstep || cfg.Shards > 1 || cfg.Churn != nil:
		return fmt.Errorf("cluster: a single-node run is async and churnless (no Lockstep, Shards or Churn)")
	}
	// Every peer starts presumed-live: membership here is static (the
	// launcher starts all N processes); what is dynamic is routability,
	// which the known gate covers as the address book fills.
	d := newDriver(cfg, spawn)
	for i := range d.live {
		d.live[i] = true
	}
	p, nd := d.add(one.ID, false, 0)
	p.known = one.Known

	ctx, cancel := context.WithTimeout(ctx, cfg.timeout())
	defer cancel()
	return d.loop(ctx, one.ID, time.Now(), false, nil, func(at time.Duration) error {
		p.M.Done, p.M.DoneAt = true, at
		if err := nd.Verify(); err != nil {
			return err
		}
		time.AfterFunc(one.linger(), cancel)
		return nil
	})
}
