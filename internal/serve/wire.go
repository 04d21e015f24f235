package serve

import "flashmob"

// SchemaVersion identifies the JSON layout of every fmserve response
// body. Bump it when a field is renamed or removed (additions are
// backward compatible); docs/SERVING.md documents the current schema.
// Field order in the encoded JSON is the struct declaration order below
// and is part of the contract — wire_test.go pins it byte for byte.
const SchemaVersion = 1

// WalkRequest is the body of POST /v1/walk: one walk query to be
// coalesced with compatible neighbors into a shared batched episode.
type WalkRequest struct {
	// Walkers is how many walkers to advance (required, ≥ 1, bounded by
	// the server's max-walkers-per-request knob).
	Walkers int `json:"walkers"`
	// Steps is the walk length (0 = the algorithm's default).
	Steps int `json:"steps,omitempty"`
	// Algorithm names the served walk to run (empty = the server's
	// default, its first configured algorithm).
	Algorithm string `json:"algorithm,omitempty"`
	// Seed, when present, makes the request reproducible: the response's
	// trajectories are a pure function of (server graph+algorithm build,
	// seed, walkers, steps), identical whether the request rode a batch
	// alone or coalesced with others. Omitted = sampling mode: the server
	// draws a fresh per-batch seed and the request shares one engine run
	// with its batch neighbors.
	Seed *uint64 `json:"seed,omitempty"`
	// TimeoutMS bounds queueing + execution start: a request still
	// waiting when its deadline passes is shed with 503 instead of
	// executed. 0 = the server's default timeout; values above the
	// server's maximum are clamped.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// WalkResponse is the 200 body of POST /v1/walk.
type WalkResponse struct {
	// SchemaVersion is SchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Algorithm is the walk that ran (resolved default included).
	Algorithm string `json:"algorithm"`
	// Walkers echoes the request's walker count.
	Walkers int `json:"walkers"`
	// Steps is the resolved walk length (algorithm default applied).
	Steps int `json:"steps"`
	// Seeded reports whether the request carried a seed.
	Seeded bool `json:"seeded"`
	// Seed echoes the request seed when Seeded (omitted otherwise).
	Seed uint64 `json:"seed,omitempty"`
	// Coalesced reports whether the request shared its scheduling batch
	// with at least one other request.
	Coalesced bool `json:"coalesced"`
	// BatchRequests counts the requests in the scheduling batch this
	// request rode (including itself).
	BatchRequests int `json:"batch_requests"`
	// RunWalkers counts the walkers of the cohort that produced this
	// response: the whole coalesced (algorithm, steps) group for unseeded
	// requests, the request's own walkers for seeded ones (which always
	// get a private, reproducible cohort).
	RunWalkers int `json:"run_walkers"`
	// RunCohorts counts the cohorts of the engine run that carried this
	// request: 1 when the run served a single (algorithm, steps) group,
	// more when the wave mixed algorithms or step counts into one shared
	// run.
	RunCohorts int `json:"run_cohorts"`
	// Epoch identifies the graph snapshot the walk ran against on a
	// dynamic server (walk-on-snapshot consistency: the whole run sampled
	// one epoch, resolved when the batch started executing). Omitted on
	// static servers.
	Epoch uint64 `json:"epoch,omitempty"`
	// Paths holds one trajectory per requested walker, each steps+1
	// vertices long (start included), in the caller's original vertex
	// IDs.
	Paths [][]flashmob.VID `json:"paths"`
	// QueueMS is the time the request spent queued before its batch
	// started executing.
	QueueMS float64 `json:"queue_ms"`
	// RunMS is the wall time of the engine run that carried the request.
	RunMS float64 `json:"run_ms"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	// SchemaVersion is SchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Error describes what was rejected or shed.
	Error string `json:"error"`
	// RetryAfterMS suggests a client backoff when the rejection is load
	// shedding (omitted on permanent errors); the Retry-After header
	// carries the same hint rounded up to whole seconds.
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

// PlanEntry is one served algorithm's partitioning summary in
// PlanResponse.
type PlanEntry struct {
	// Algorithm names the served walk.
	Algorithm string `json:"algorithm"`
	// NumVPs is the total vertex-partition count.
	NumVPs int `json:"num_vps"`
	// NumGroups is the MCKP class count.
	NumGroups int `json:"num_groups"`
	// Bins is the outer-shuffle bin count.
	Bins int `json:"bins"`
	// PSVertices counts vertices under the pre-sampling policy.
	PSVertices uint32 `json:"ps_vertices"`
	// DSVertices counts vertices under the direct-sampling policy.
	DSVertices uint32 `json:"ds_vertices"`
	// SparseSwitch is the walker count W* below which a cohort samples
	// with the sparse kernel template (0: the plan pre-samples nothing).
	SparseSwitch uint64 `json:"sparse_switch_walkers"`
	// SparseDSVPs counts the partitions the sparse template
	// direct-samples although the plan pre-samples them.
	SparseDSVPs int `json:"sparse_ds_vps"`
}

// PlanResponse is the body of GET /v1/plan: every served algorithm's
// partitioning decision, in the server's configured order (so the first
// entry is the default algorithm).
type PlanResponse struct {
	// SchemaVersion is SchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Algorithms lists one entry per served algorithm.
	Algorithms []PlanEntry `json:"algorithms"`
}

// EngineReport pairs one served algorithm with its engine-lifetime
// metrics aggregate in MetricsResponse.
type EngineReport struct {
	// Algorithm names the served walk.
	Algorithm string `json:"algorithm"`
	// Report is the engine's obs report (see docs/OBSERVABILITY.md for
	// the metric reference and report schema).
	Report *flashmob.Report `json:"report"`
}

// MetricsResponse is the body of GET /metrics: the serving layer's own
// obs report plus, when the systems were built with metrics enabled, each
// engine's lifetime aggregate.
type MetricsResponse struct {
	// SchemaVersion is SchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Server is the serving layer's report: admission, queueing, batching
	// and latency metrics (documented in docs/SERVING.md).
	Server *flashmob.Report `json:"server"`
	// Engines holds each system's engine-lifetime aggregate, in served
	// order; omitted when engine metrics are off.
	Engines []EngineReport `json:"engines,omitempty"`
	// Shards holds one exchange report per shard-coordinating engine
	// group — emigrant/immigrant walker counts, exchange frames and frame
	// words per shard, superstep and run totals (internal/shard) —
	// labelled by the group's first backend. Omitted when no backend is
	// sharded.
	Shards []EngineReport `json:"shards,omitempty"`
	// Dyn holds the dynamic-graph subsystem's dyn_* report (ingest, epoch
	// turnover, compaction — see docs/OBSERVABILITY.md) when the server
	// has a dynamic backend with metrics enabled. Omitted otherwise.
	Dyn *flashmob.Report `json:"dyn,omitempty"`
}

// IngestRequest is the body of POST /v1/ingest (dynamic servers only):
// a batch of edges to append to the served graph.
type IngestRequest struct {
	// Edges lists [src, dst] pairs in the caller's original vertex IDs.
	// Endpoints beyond the current vertex space are accepted and become
	// walkable after the next compaction; self-loops are dropped.
	Edges [][2]flashmob.VID `json:"edges"`
	// Freeze, when true, publishes every pending edge as a new epoch
	// before the response is written: walks admitted afterwards observe an
	// epoch at least as new as the response's. Without it edges buffer
	// invisibly until a later freeze (the batching mode for high-rate
	// streams).
	Freeze bool `json:"freeze,omitempty"`
	// TSMS is the client's timestamp for the batch (milliseconds since its
	// stream began). The server ignores it — it exists so edge-stream
	// files (fmgen -stream) carry their pacing inline and every line is
	// still a valid request body.
	TSMS float64 `json:"ts_ms,omitempty"`
}

// IngestResponse is the 200 body of POST /v1/ingest.
type IngestResponse struct {
	// SchemaVersion is SchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Accepted counts the request's edges that were buffered (self-loops
	// are dropped silently).
	Accepted int `json:"accepted"`
	// Epoch is the current epoch after the request (the newly published
	// one when Freeze was set).
	Epoch uint64 `json:"epoch"`
	// PendingEdges counts buffered edges not yet frozen into any epoch
	// (after undirected expansion).
	PendingEdges uint64 `json:"pending_edges"`
	// DeltaEdges counts the current epoch's overlay edges (0 right after a
	// compaction).
	DeltaEdges uint64 `json:"delta_edges"`
	// DeferredEdges counts frozen edges awaiting compaction to become
	// walkable (new-vertex endpoints).
	DeferredEdges uint64 `json:"deferred_edges"`
	// Compactions counts compactions completed since the server started.
	Compactions uint64 `json:"compactions"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" while serving, "closed" once shutdown has begun
	// (sent with a 503 so load balancers drain the instance).
	Status string `json:"status"`
	// UptimeMS is the time since the server was created.
	UptimeMS float64 `json:"uptime_ms"`
}
