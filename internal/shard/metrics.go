// Package shard runs the sample→shuffle pipeline across multiple engine
// shards: internal/part's ShardMap cuts the (degree-sorted) vertex space
// into contiguous partition runs, each shard advances all of its local
// walkers one wave step per superstep through its engine session
// (core.Session.Step), and a cross-shard Exchange write-combines every
// cohort's emigrant walkers per destination shard and delivers them in
// one bulk round over channels (in-process shards) or length-prefixed
// TCP frames (one shard per process).
//
// Supersteps alternate local-walk / exchange in BSP lockstep, walker ids
// are global in the run's execution order, and every sample draw keys on
// the cohort's own (seed, step, partition, sub-shard) schedule — global
// coordinates a shard can compute locally — so sharded trajectories are
// bitwise-identical to the single-engine run regardless of shard count
// or transport. See DESIGN.md, "Sharded topology".
package shard

import (
	"strconv"

	"flashmob/internal/obs"
)

// Metrics is the sharded topology's observability set, indexed by shard.
// The emigrant counters are the executable counterpart of the
// internal/sim cross-domain traffic model.
type Metrics struct {
	reg *obs.Registry
	// Emigrants counts walker records each shard sent to peers.
	Emigrants *obs.CounterVec
	// Immigrants counts walker records each shard received from peers.
	Immigrants *obs.CounterVec
	// Frames counts exchange frames each shard sent (including the empty
	// barrier frames every peer pair trades once per exchange round).
	Frames *obs.CounterVec
	// FrameWords counts the 4-byte words of frame payload each shard sent.
	FrameWords *obs.CounterVec
	// Supersteps counts superstep iterations summed over shards.
	Supersteps *obs.Counter
	// Runs counts completed sharded runs.
	Runs *obs.Counter
}

// newMetrics builds the topology's registry for the given shard count.
func newMetrics(shards int) *Metrics {
	labels := make([]string, shards)
	for i := range labels {
		labels[i] = "shard" + strconv.Itoa(i)
	}
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		Emigrants: reg.CounterVec(obs.Desc{
			Name: "shard_emigrants_total", Unit: "walkers", Stage: "shard",
			Help: "walker records sent to peer shards, by sending shard"}, shards, labels),
		Immigrants: reg.CounterVec(obs.Desc{
			Name: "shard_immigrants_total", Unit: "walkers", Stage: "shard",
			Help: "walker records received from peer shards, by receiving shard"}, shards, labels),
		Frames: reg.CounterVec(obs.Desc{
			Name: "shard_exchange_frames_total", Unit: "count", Stage: "shard",
			Help: "exchange frames sent (empty barrier frames included), by sending shard"}, shards, labels),
		FrameWords: reg.CounterVec(obs.Desc{
			Name: "shard_exchange_frame_words_total", Unit: "count", Stage: "shard",
			Help: "4-byte payload words of exchange frames sent, by sending shard"}, shards, labels),
		Supersteps: reg.Counter(obs.Desc{
			Name: "shard_supersteps_total", Unit: "count", Stage: "shard",
			Help: "superstep iterations executed, summed over shards"}),
		Runs: reg.Counter(obs.Desc{
			Name: "shard_runs_total", Unit: "count", Stage: "shard",
			Help: "completed sharded mixed runs"}),
	}
}

// Report snapshots the topology's metrics.
func (m *Metrics) Report() *obs.Report { return m.reg.Snapshot() }
