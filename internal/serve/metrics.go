package serve

import "flashmob/internal/obs"

// serveMetrics is the serving layer's metric set, always on (unlike the
// engine's Config.Metrics, the serve path is request-grained, not
// walker-grained, so the cost is irrelevant). Every metric here is
// documented in docs/SERVING.md; serve_test.go enforces the contract.
type serveMetrics struct {
	reg *obs.Registry

	// Admission accounting.
	requests     *obs.Counter
	served       *obs.Counter
	shedOverload *obs.Counter
	shedExpired  *obs.Counter
	shedClosed   *obs.Counter
	failed       *obs.Counter
	queueDepth   *obs.Gauge

	// Batch structure.
	batches       *obs.Counter
	batchRequests *obs.Histogram
	batchWalkers  *obs.Histogram

	// runCohorts is the cohort count per engine run: 1 for solo runs,
	// more when a wave mixed algorithms or step counts into one run. Its
	// count is the number of runs: one per batch not wholly shed.
	runCohorts *obs.Histogram

	// Latency: queue wait and end-to-end per request, wall time per
	// engine run.
	queueNS   *obs.Histogram
	latencyNS *obs.Histogram
	runNS     *obs.Histogram
}

// newServeMetrics builds the serve metric set on a fresh registry.
func newServeMetrics() *serveMetrics {
	reg := obs.NewRegistry()
	return &serveMetrics{
		reg: reg,
		requests: reg.Counter(obs.Desc{
			Name: "serve_requests_total", Unit: "count", Stage: "serve",
			Help: "walk requests admitted to the queue",
		}),
		served: reg.Counter(obs.Desc{
			Name: "serve_served_total", Unit: "count", Stage: "serve",
			Help: "walk requests answered 200 with trajectories",
		}),
		shedOverload: reg.Counter(obs.Desc{
			Name: "serve_shed_overload_total", Unit: "count", Stage: "serve",
			Help: "requests shed 503 because the admission queue was full",
		}),
		shedExpired: reg.Counter(obs.Desc{
			Name: "serve_shed_expired_total", Unit: "count", Stage: "serve",
			Help: "requests shed 503 because their deadline passed before execution",
		}),
		shedClosed: reg.Counter(obs.Desc{
			Name: "serve_shed_closed_total", Unit: "count", Stage: "serve",
			Help: "requests answered 503 because the server was shutting down",
		}),
		failed: reg.Counter(obs.Desc{
			Name: "serve_failed_total", Unit: "count", Stage: "serve",
			Help: "requests answered 500 by an engine error",
		}),
		queueDepth: reg.Gauge(obs.Desc{
			Name: "serve_queue_depth", Unit: "count", Stage: "serve",
			Help: "requests currently waiting in admission queues",
		}),
		batches: reg.Counter(obs.Desc{
			Name: "serve_batches_total", Unit: "count", Stage: "serve",
			Help: "scheduling batches executed",
		}),
		batchRequests: reg.Histogram(obs.Desc{
			Name: "serve_batch_requests", Unit: "count", Stage: "serve",
			Help: "requests per executed scheduling batch",
		}),
		batchWalkers: reg.Histogram(obs.Desc{
			Name: "serve_batch_walkers", Unit: "walkers", Stage: "serve",
			Help: "walkers per executed scheduling batch",
		}),
		runCohorts: reg.Histogram(obs.Desc{
			Name: "serve_run_cohorts", Unit: "count", Stage: "serve",
			Help: "cohorts per engine run (1 = solo, more = mixed-algorithm wave)",
		}),
		queueNS: reg.Histogram(obs.Desc{
			Name: "serve_request_queue_ns", Unit: "ns", Stage: "serve",
			Help: "time from admission to batch execution start, per served request",
		}),
		latencyNS: reg.Histogram(obs.Desc{
			Name: "serve_request_latency_ns", Unit: "ns", Stage: "serve",
			Help: "time from admission to response delivery, per served request",
		}),
		runNS: reg.Histogram(obs.Desc{
			Name: "serve_batch_run_ns", Unit: "ns", Stage: "serve",
			Help: "engine wall time per run executed on behalf of a batch",
		}),
	}
}
