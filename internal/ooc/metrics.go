package ooc

import "flashmob/internal/obs"

// oocMetrics is the out-of-core engine's observability state, built once
// per engine when Config.Metrics is set; a nil *oocMetrics disables every
// recording site. The block source records per block, never per walker.
type oocMetrics struct {
	reg *obs.Registry

	runs, steps   *obs.Counter
	blocks, bytes *obs.Counter
	skipped       *obs.Counter
	ioWaitNS      *obs.Counter
	ioReadNS      *obs.Counter

	// Resident-tier accounting: pinned-block sample passes vs. streamed
	// blocks, bytes saved, and the pin set's size (set once at New).
	residentHits   *obs.Counter
	residentMisses *obs.Counter
	residentSaved  *obs.Counter
	residentBytes  *obs.Gauge
	residentParts  *obs.Gauge

	// Per-block distributions: streamed block size and in-memory sample
	// time over the block's walkers.
	blockBytes    *obs.Histogram
	blockSampleNS *obs.Histogram
}

// newOOCMetrics builds the engine's metric set.
func newOOCMetrics() *oocMetrics {
	reg := obs.NewRegistry()
	return &oocMetrics{
		reg: reg,
		runs: reg.Counter(obs.Desc{
			Name: "ooc_runs_total", Unit: "count", Stage: "run",
			Help: "Engine.Run invocations",
		}),
		steps: reg.Counter(obs.Desc{
			Name: "ooc_steps_total", Unit: "count", Stage: "run",
			Help: "pipeline steps executed",
		}),
		blocks: reg.Counter(obs.Desc{
			Name: "ooc_blocks_read_total", Unit: "count", Stage: "stream",
			Help: "coalesced IO runs streamed from disk (adjacent partition blocks merge into one pread)",
		}),
		bytes: reg.Counter(obs.Desc{
			Name: "ooc_bytes_read_total", Unit: "bytes", Stage: "stream",
			Help: "edge-block bytes streamed from disk",
		}),
		skipped: reg.Counter(obs.Desc{
			Name: "ooc_blocks_skipped_total", Unit: "count", Stage: "stream",
			Help: "partition blocks skipped because no walker landed there this step",
		}),
		ioWaitNS: reg.Counter(obs.Desc{
			Name: "ooc_io_wait_ns", Unit: "ns", Stage: "stream",
			Help: "time the sample stage spent blocked on block reads, after overlap with sampling",
		}),
		ioReadNS: reg.Counter(obs.Desc{
			Name: "ooc_io_read_ns", Unit: "ns", Stage: "stream",
			Help: "time the reader spent inside block preads (the raw IO cost double buffering overlaps)",
		}),
		residentHits: reg.Counter(obs.Desc{
			Name: "ooc_resident_hits_total", Unit: "count", Stage: "resident",
			Help: "partition visits served from the pinned resident tier (no disk read)",
		}),
		residentMisses: reg.Counter(obs.Desc{
			Name: "ooc_resident_misses_total", Unit: "count", Stage: "resident",
			Help: "partition visits not in the resident tier (block streamed from disk)",
		}),
		residentSaved: reg.Counter(obs.Desc{
			Name: "ooc_resident_saved_bytes_total", Unit: "bytes", Stage: "resident",
			Help: "edge-block bytes not streamed because the partition was pinned",
		}),
		residentBytes: reg.Gauge(obs.Desc{
			Name: "ooc_resident_bytes", Unit: "bytes", Stage: "resident",
			Help: "DRAM pinned by the resident tier (set at New)",
		}),
		residentParts: reg.Gauge(obs.Desc{
			Name: "ooc_resident_partitions", Unit: "count", Stage: "resident",
			Help: "partitions pinned by the storage-tier knapsack (set at New)",
		}),
		blockBytes: reg.Histogram(obs.Desc{
			Name: "ooc_block_bytes", Unit: "bytes", Stage: "stream",
			Help: "bytes per streamed IO run (one pread)",
		}),
		blockSampleNS: reg.Histogram(obs.Desc{
			Name: "ooc_block_sample_ns", Unit: "ns", Stage: "sample",
			Help: "in-memory sample time per streamed IO run",
		}),
	}
}

// MetricsReport snapshots the engine's metrics registry, accumulated
// across every Run since the engine was built. Returns nil when the
// engine was created without Config.Metrics.
func (e *Engine) MetricsReport() *obs.Report {
	if e.metrics == nil {
		return nil
	}
	return e.metrics.reg.Snapshot()
}
