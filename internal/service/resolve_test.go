package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/model"
)

// oversizedGrids are refused by ParseMesh before any grid is allocated:
// one tile over the cap, a grid whose tables would not fit in memory, and
// one whose tile count overflows int64.
var oversizedGrids = []string{
	`{"demo":true,"mesh":"33x32"}`,
	`{"demo":true,"mesh":"2000x2000"}`,
	`{"demo":true,"mesh":"3037000500x3037000500"}`,
	`{"demo":true,"mesh":"4x4","depth":1099511627776}`,
	`{"demo":true,"depth":4611686018427387904}`,
}

func decodeRequest(body []byte) (*Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return &req, dec.Decode(&req)
}

// TestResolveTileCap: a grid of MaxTiles tiles resolves, a larger one is
// a bad request.
func TestResolveTileCap(t *testing.T) {
	req, err := decodeRequest([]byte(`{"demo":true,"mesh":"32x32"}`))
	if err != nil {
		t.Fatal(err)
	}
	in, err := req.Resolve()
	if err != nil {
		t.Fatalf("32x32: %v", err)
	}
	if n := in.Mesh.NumTiles(); n != MaxTiles {
		t.Fatalf("32x32 resolved to %d tiles, want %d", n, MaxTiles)
	}
	for _, body := range oversizedGrids {
		req, err := decodeRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.Resolve(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", body, err)
		}
	}
}

// TestHTTPRefusesOversizedGrid: the daemon answers an oversized grid with
// 400 and keeps serving.
func TestHTTPRefusesOversizedGrid(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range oversizedGrids {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, st := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":7}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after refusals: status %d", resp.StatusCode)
	}
	pollUntil(t, ts, st.ID, StateSucceeded)
}

// FuzzResolve drives the request path as POST /v1/jobs does: decode with
// unknown fields refused, then Resolve. Resolve must never panic, every
// error must wrap ErrBadRequest, and the same bytes must resolve to the
// same cache key twice.
func FuzzResolve(f *testing.F) {
	for _, req := range []*Request{
		fastRequest(1), slowRequest(2), mediumRequest(3), paretoRequest(4),
		resilienceRequest(5), benchRequest(6),
		{App: model.PaperExampleCDCG(), Mesh: "2x2x2", Routing: "xyz", Tech: "0.35um", GreedySeed: true},
		{Demo: true, Mesh: "3x3", Model: "resilience", FaultSet: &FaultSetJSON{Links: [][2]int{{0, 1}}, Routers: []int{4}}},
		{Demo: true, Topology: "torus", Depth: 2, Surrogate: true, SurrogateSamples: 4},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range oversizedGrids {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var keys [2]string
		for i := range keys {
			req, err := decodeRequest(body)
			if err != nil {
				return // the HTTP layer answers 400 before Resolve
			}
			in, err := req.Resolve()
			if err != nil {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("Resolve error %v does not wrap ErrBadRequest", err)
				}
				return
			}
			keys[i] = in.Key()
		}
		if keys[0] != keys[1] {
			t.Fatalf("one body, two keys: %s vs %s", keys[0], keys[1])
		}
	})
}
