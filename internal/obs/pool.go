package obs

// PoolMetrics is the metric set a persistent worker pool records into
// (internal/pool): phase-barrier executions, per-worker shard busy time,
// and the time the caller spends parked on the barrier after finishing
// its own shard. Engines build one with NewPoolMetrics per session and
// pass it to pool.Submit or pool.Inline with each phase; a nil
// *PoolMetrics disables collection.
type PoolMetrics struct {
	// Runs counts phases executed (one per pool.Submit or pool.Inline
	// call).
	Runs *Counter
	// BusyNS accumulates each worker's shard execution time; slot i is
	// worker i (slot 0 is the calling goroutine).
	BusyNS *CounterVec
	// BarrierWaitNS accumulates the time the caller waits for the slowest
	// worker after finishing its own shard — the stage's load imbalance.
	BarrierWaitNS *Counter
}

// NewPoolMetrics registers the pool metric set for a pool of the given
// worker count.
func NewPoolMetrics(r *Registry, workers int) *PoolMetrics {
	return &PoolMetrics{
		Runs: r.Counter(Desc{
			Name: "pool_runs_total", Unit: "count", Stage: "pool",
			Help: "phase barriers executed on the persistent worker pool",
		}),
		BusyNS: r.CounterVec(Desc{
			Name: "pool_worker_busy_ns", Unit: "ns", Stage: "pool",
			Help: "per-worker shard execution time; index is the worker slot (0 = caller)",
		}, workers, nil),
		BarrierWaitNS: r.Counter(Desc{
			Name: "pool_barrier_wait_ns", Unit: "ns", Stage: "pool",
			Help: "time the caller spends waiting at the phase barrier after its own shard finishes (stage load imbalance)",
		}),
	}
}
