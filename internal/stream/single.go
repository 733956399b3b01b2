package stream

import (
	"context"

	"repro/internal/cluster"
)

// RunSingle runs ONE node of an N-node streaming run — the cmd/node
// process body for -mode stream — over cfg.Transport, which it does
// not close: it sources its share of every window generation, gossips
// coded packets and watermark acks until it has delivered the whole
// stream in order (each delivery verified against the Source), keeps
// emitting for the linger window so peers can finish, and returns the
// node's metrics. The other N-1 nodes are separate processes; every
// process must agree on N, K, PayloadBits, Window, Generations and
// Seed so the independently derived Sources line up. A timeout or
// cancellation before completion returns Done == false and a nil
// error; the error reports misconfiguration or delivery verification
// failure.
func RunSingle(ctx context.Context, cfg Config, one cluster.SingleConfig) (NodeMetrics, error) {
	var m NodeMetrics
	src, err := cfg.check()
	if err != nil {
		return m, err
	}
	err = cluster.RunNode(ctx, cfg.driver(), one, func(p *cluster.Peer, _ bool) cluster.Node {
		return newNode(p, cfg, src, &m, false)
	})
	return m, err
}
