package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"flashmob"
)

// serveFuzzBody posts body to path through the server's handler, in
// process, and fails on a 500; it returns the status and response body.
func serveFuzzBody(t *testing.T, s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s %q: 500 %s", path, body, rec.Body.Bytes())
	}
	return rec.Code, rec.Body.Bytes()
}

// decodeLikeServer decodes body the way the handlers do: the first JSON
// value, unknown fields rejected.
func decodeLikeServer(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzWalkRequest posts arbitrary bodies to /v1/walk on a tiny static
// server with two backends sharing one build. The server must never
// panic or answer 500, and every 200 must echo its request: algorithm,
// walker and step counts, seed, and one steps+1 path per walker.
func FuzzWalkRequest(f *testing.F) {
	for _, seed := range []string{
		`{"walkers":4,"steps":3}`,
		`{"walkers":8,"steps":5,"algorithm":"node2vec","seed":7}`,
		`{"walkers":2,"algorithm":"deepwalk","timeout_ms":0.001}`,
		`{"walkers":0}`,
		`{"walkers":65,"steps":2}`,
		`{"walkers":1,"steps":-1}`,
		`{"walkers":1,"algorithm":"nope"}`,
		`{"walkers":1,"extra":true}`,
		`{"walkers":3,"seed":18446744073709551615,"timeout_ms":1e300}`,
		`{"walkers":1}{"walkers":2}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	sys, spec := testSystem(f)
	s, err := New([]Backend{
		{Name: "deepwalk", Sys: sys, Spec: spec},
		{Name: "node2vec", Sys: sys, Spec: flashmob.Node2Vec(2, 0.5)},
	}, Config{MaxBatchWalkers: 256, MaxWalkersPerRequest: 64, MaxSteps: 16, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		status, data := serveFuzzBody(t, s, "/v1/walk", body)
		if status != http.StatusOK {
			return
		}
		var req WalkRequest
		if err := decodeLikeServer(body, &req); err != nil {
			t.Fatalf("200 for a body the handler's decoder rejects (%v): %q", err, body)
		}
		var resp WalkResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		algo, steps := req.Algorithm, req.Steps
		if algo == "" {
			algo = "deepwalk"
		}
		if steps == 0 {
			steps = spec.Steps
		}
		if resp.Algorithm != algo || resp.Walkers != req.Walkers || resp.Steps != steps ||
			resp.Seeded != (req.Seed != nil) || (req.Seed != nil && resp.Seed != *req.Seed) {
			t.Fatalf("response %+v does not echo request %q", resp, body)
		}
		if len(resp.Paths) != req.Walkers {
			t.Fatalf("%d paths for %d walkers", len(resp.Paths), req.Walkers)
		}
		for _, p := range resp.Paths {
			if len(p) != steps+1 {
				t.Fatalf("path of %d vertices for %d steps", len(p), steps)
			}
		}
	})
}

// FuzzIngestRequest posts arbitrary bodies to /v1/ingest on a tiny
// dynamic server. The server must never panic or answer 500, and every
// 200 must echo its request: one accepted edge per non-self-loop pair.
func FuzzIngestRequest(f *testing.F) {
	for _, seed := range []string{
		`{"edges":[[0,1],[2,3]]}`,
		`{"edges":[[5,5],[1,4000000000]],"freeze":true}`,
		`{"edges":[],"freeze":true,"ts_ms":12.5}`,
		`{"edges":[[1]]}`,
		`{"edges":[[-1,2]]}`,
		`{"edges":null}`,
		`{"freeze":"yes"}`,
		`{"edges":[[0,1]],"extra":1}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New([]Backend{{Name: "deepwalk", Dyn: testDynamic(f), Spec: flashmob.DeepWalk()}}, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		status, data := serveFuzzBody(t, s, "/v1/ingest", body)
		if status != http.StatusOK {
			return
		}
		var req IngestRequest
		if err := decodeLikeServer(body, &req); err != nil {
			t.Fatalf("200 for a body the handler's decoder rejects (%v): %q", err, body)
		}
		var resp IngestResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		want := 0
		for _, e := range req.Edges {
			if e[0] != e[1] {
				want++
			}
		}
		if resp.Accepted != want {
			t.Fatalf("accepted %d of %q, want %d", resp.Accepted, body, want)
		}
	})
}
