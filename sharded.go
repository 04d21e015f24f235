package flashmob

import (
	"context"
	"fmt"
	"net"

	"flashmob/internal/core"
	"flashmob/internal/shard"
)

// ShardedSystem runs a System's walks across multiple shard engines: the
// vertex space is cut into contiguous partition-aligned ranges, each
// shard advances the walkers currently on its vertices through the
// ordinary sample→shuffle pipeline, and a cross-shard exchange
// write-combines emigrant walkers to their new owners between supersteps
// (internal/shard). Trajectories are bitwise-identical to the same
// cohorts on the plain System, whatever the shard count or transport.
//
// Two topologies exist: in-process (NewSharded — every shard is a
// goroutine over the same engine, exchanging over channels) and
// multi-process (NewShardedRemote — each shard is a ServeShardWorker
// process, exchanging over TCP).
type ShardedSystem struct {
	sys  *System
	topo *shard.Topology
	rem  *shard.Remote
}

// NewSharded builds an in-process sharded topology over s with the given
// shard count. The System stays usable directly; the topology borrows
// its engine.
func NewSharded(s *System, shards int) (*ShardedSystem, error) {
	topo, err := shard.New(s.engine, shards)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &ShardedSystem{sys: s, topo: topo}, nil
}

// NewShardedRemote builds a multi-process coordinator over the shard
// workers at addrs (one ServeShardWorker each, built from the same graph
// and Options as s). The local System supplies the plan — for the shard
// map and walker placement — but never steps walkers itself.
func NewShardedRemote(s *System, addrs []string) (*ShardedSystem, error) {
	rem, err := shard.NewRemote(s.engine, addrs)
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &ShardedSystem{sys: s, rem: rem}, nil
}

// NumShards returns the topology's shard count.
func (ss *ShardedSystem) NumShards() int {
	if ss.topo != nil {
		return ss.topo.NumShards()
	}
	return ss.rem.NumShards()
}

// WalkMixed advances every cohort across the shards. Results are
// bitwise-identical to System.WalkMixed with the same cohorts; paths are
// always recorded. A nil ctx means context.Background(). Remote
// topologies reject Algorithm values carrying Custom or History
// transitions (function values cannot cross the wire).
func (ss *ShardedSystem) WalkMixed(ctx context.Context, cohorts []CohortSpec) (*MixedResult, error) {
	var (
		res *core.MixedResult
		err error
	)
	if ss.topo != nil {
		res, err = ss.topo.RunMixed(ctx, coreCohorts(cohorts))
	} else {
		res, err = ss.rem.RunMixed(ctx, coreCohorts(cohorts))
	}
	if err != nil {
		return nil, fmt.Errorf("flashmob: %w", err)
	}
	return &MixedResult{inner: res, newToOld: ss.sys.newToOld}, nil
}

// MetricsReport snapshots the topology's exchange counters (emigrants,
// immigrants, frames, frame words per shard, plus superstep and run
// totals). Always available, independent of Options.Metrics.
func (ss *ShardedSystem) MetricsReport() *Report {
	if ss.topo != nil {
		return ss.topo.MetricsReport()
	}
	return ss.rem.MetricsReport()
}

// ServeShardWorker hosts shard self of a multi-process topology: it
// builds the same System every other worker and the coordinator build
// (identical graph and Options — the shard map and seed schedule derive
// from the partition plan), listens on addrs[self], meshes with its
// peers, and serves coordinator runs until ctx ends. Returns ctx.Err()
// on a clean drain. This is what fmserve -shard-worker wraps.
func ServeShardWorker(ctx context.Context, g *Graph, opt Options, self int, addrs []string) error {
	if self < 0 || self >= len(addrs) {
		return fmt.Errorf("flashmob: shard index %d out of range [0, %d)", self, len(addrs))
	}
	sys, err := New(g, opt)
	if err != nil {
		return err
	}
	defer sys.Close()
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return fmt.Errorf("flashmob: shard worker listen: %w", err)
	}
	if err := shard.ServeWorker(ctx, ln, sys.engine, self, addrs); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("flashmob: %w", err)
	}
	return nil
}
