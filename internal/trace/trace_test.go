package trace

import (
	"bytes"
	"strings"
	"testing"

	"flashmob/internal/algo"
	"flashmob/internal/core"
	"flashmob/internal/gen"
	"flashmob/internal/graph"
	"flashmob/internal/part"
	"flashmob/internal/walk"
)

func TestCorpusRoundTrip(t *testing.T) {
	h, err := walk.NewHistory([][]graph.VID{{1, 4}, {2, 5}, {3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, h); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "1 2 3\n4 5 6\n" {
		t.Fatalf("corpus = %q", got)
	}
	paths, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[1][2] != 6 {
		t.Fatalf("round trip: %v", paths)
	}
}

func TestReadCorpusErrors(t *testing.T) {
	for _, in := range []string{"1 x 3\n", "1  2\n"} {
		if _, err := ReadCorpus(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	// Blank lines are skipped, not errors.
	paths, err := ReadCorpus(strings.NewReader("\n7\n"))
	if err != nil || len(paths) != 1 || paths[0][0] != 7 {
		t.Fatalf("blank-line handling: %v %v", paths, err)
	}
}

func TestEdgeStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewEdgeStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Sink(0, []graph.VID{1, 3}, []graph.VID{2, 4})
	w.Sink(1, []graph.VID{2, 4}, []graph.VID{3, 5})
	if w.Edges() != 4 {
		t.Fatalf("Edges = %d", w.Edges())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][2]graph.VID
	if err := ReadEdgeStream(&buf, func(f, to graph.VID) {
		got = append(got, [2]graph.VID{f, to})
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]graph.VID{{1, 2}, {3, 4}, {2, 3}, {4, 5}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEdgeStreamRejectsGarbage(t *testing.T) {
	if err := ReadEdgeStream(strings.NewReader("definitely not a stream"), func(f, to graph.VID) {}); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := ReadEdgeStream(strings.NewReader(""), func(f, to graph.VID) {}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEdgeStreamFromEngine(t *testing.T) {
	// End to end: plug the stream writer into the engine's StepSink, then
	// check every streamed edge is a real graph edge and the count is
	// exact.
	gdir, err := gen.PowerLaw(gen.PowerLawConfig{NumVertices: 500, AvgDegree: 6, Alpha: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for v := uint32(0); v < gdir.NumVertices(); v++ {
		for _, w := range gdir.Neighbors(v) {
			if v != w {
				edges = append(edges, graph.Edge{Src: v, Dst: w})
			}
		}
	}
	res, err := graph.Build(edges, graph.BuildOptions{Undirected: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.SortByDegreeDesc(res.Graph).Graph

	var buf bytes.Buffer
	sw, err := NewEdgeStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(g, algo.DeepWalk(), core.Config{
		Workers: 2, Seed: 2, StepSink: sw.Sink,
		Part: part.Config{TargetGroups: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const walkers, steps = 300, 6
	if _, err := e.Run(walkers, steps); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReadEdgeStream(&buf, func(f, to graph.VID) {
		n++
		if f == to && g.Degree(f) == 0 {
			return
		}
		if !g.HasEdge(f, to) {
			t.Fatalf("streamed %d→%d not an edge", f, to)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n != walkers*steps {
		t.Fatalf("streamed %d edges, want %d", n, walkers*steps)
	}
}
