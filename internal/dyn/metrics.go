package dyn

import "flashmob/internal/obs"

// dynMetrics is the dynamic-graph subsystem's metric set, resolved once at
// System construction (nil unless Config.Metrics). All counters are
// system-lifetime: unlike engine metrics there is no per-session registry —
// ingest and epoch turnover are system-wide events.
type dynMetrics struct {
	reg *obs.Registry

	ingestedEdges *obs.Counter
	deferredEdges *obs.Counter
	deltaEdges    *obs.Gauge
	pendingEdges  *obs.Gauge
	freezes       *obs.Counter
	epochSwaps    *obs.Counter
	epochsRetired *obs.Counter
	compactions   *obs.Counter
	compactionNS  *obs.Histogram
}

// newDynMetrics registers the dyn_* metric set on a fresh registry. See
// docs/OBSERVABILITY.md for the metric reference.
func newDynMetrics() *dynMetrics {
	reg := obs.NewRegistry()
	return &dynMetrics{
		reg: reg,
		ingestedEdges: reg.Counter(obs.Desc{Name: "dyn_ingested_edges_total", Unit: "edges", Stage: "dyn",
			Help: "Delta edges accepted by Ingest, after self-loop filtering and undirected expansion."}),
		deferredEdges: reg.Counter(obs.Desc{Name: "dyn_deferred_edges_total", Unit: "edges", Stage: "dyn",
			Help: "Frozen delta edges touching vertices beyond the current build's vertex space, held back from the overlay until the next compaction."}),
		deltaEdges: reg.Gauge(obs.Desc{Name: "dyn_delta_edges", Unit: "edges", Stage: "dyn",
			Help: "Delta edges in the current epoch's overlay (0 on compacted epochs)."}),
		pendingEdges: reg.Gauge(obs.Desc{Name: "dyn_pending_edges", Unit: "edges", Stage: "dyn",
			Help: "Edges ingested but not yet frozen into any epoch."}),
		freezes: reg.Counter(obs.Desc{Name: "dyn_freezes_total", Unit: "count", Stage: "dyn",
			Help: "Freeze calls that published a new overlay epoch."}),
		epochSwaps: reg.Counter(obs.Desc{Name: "dyn_epoch_swaps_total", Unit: "count", Stage: "dyn",
			Help: "Epoch swaps of any kind: freezes plus compactions."}),
		epochsRetired: reg.Counter(obs.Desc{Name: "dyn_epochs_retired_total", Unit: "count", Stage: "dyn",
			Help: "Epochs fully drained and retired (their references reached zero after being superseded)."}),
		compactions: reg.Counter(obs.Desc{Name: "dyn_compactions_total", Unit: "count", Stage: "dyn",
			Help: "Compactions completed: delta merged into a fresh engine build and swapped in."}),
		compactionNS: reg.Histogram(obs.Desc{Name: "dyn_compaction_ns", Unit: "ns", Stage: "dyn",
			Help: "Wall time of each compaction: merge, re-sort, plan, engine build."}),
	}
}
