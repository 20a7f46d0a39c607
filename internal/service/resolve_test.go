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

// overCapFaults are fault sets whose route-table work, elements ×
// tiles², exceeds MaxTiles²: fault_rate 0.1 draws 57 elements on 16x16,
// and two failed links on the largest grid are twice the cap.
var overCapFaults = []string{
	`{"demo":true,"mesh":"16x16","fault_rate":0.1,"fault_seed":1}`,
	`{"demo":true,"mesh":"32x32","fault_set":{"links":[[0,1],[1,2]]}}`,
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

// TestFaultWorkCap: a fault set over the route-table cap is refused by
// Resolve and answered 400 by the daemon, which keeps serving; a set at
// the cap and every fault fixture of the package's tests resolve.
func TestFaultWorkCap(t *testing.T) {
	for _, body := range overCapFaults {
		req, err := decodeRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.Resolve(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", body, err)
		}
	}
	for _, req := range []*Request{
		{Demo: true, Mesh: "32x32", FaultSet: &FaultSetJSON{Links: [][2]int{{0, 1}}}},
		{Demo: true, Mesh: "16x16", FaultSet: &FaultSetJSON{Routers: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}},
		{Demo: true, Mesh: "12x10", FaultRate: 0.08, FaultSeed: 1},
		{Demo: true, Mesh: "4x4", FaultRate: 0.08, FaultSeed: 2},
		resilienceRequest(1),
		{Demo: true, Mesh: "3x3", Model: "resilience", FaultSet: &FaultSetJSON{Links: [][2]int{{3, 4}}}},
		{Demo: true, Mesh: "3x3", Model: "resilience", FaultSet: &FaultSetJSON{Links: [][2]int{{0, 1}}, Routers: []int{4}}},
	} {
		in, err := req.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if in.Opts.Faults.Empty() {
			t.Fatalf("%+v resolved to an empty fault set", req)
		}
	}

	_, ts := testServer(t, Config{})
	for _, body := range overCapFaults {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, st := postJob(t, ts, `{"demo":true,"mesh":"3x3","model":"cwm","method":"sa","seed":7,"fault_rate":0.15,"fault_seed":2}`)
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
	for _, body := range append(oversizedGrids, overCapFaults...) {
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

// TestCacheKeyPinned pins the cache key by value: a cached result is
// replayed only to a request whose key is byte-identical, so any change
// to the hashed lines (the NoC line included) orphans every cache entry.
func TestCacheKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *Request
		want string
	}{
		{"fast", fastRequest(3), "91323bd3811eea75e9a19b30e9c8b62273e490ce66bd08b4f98cfe99d62e7acd"},
		{"cdcm fault_set", &Request{Demo: true, Mesh: "3x3", Model: "cdcm", Method: "hill", Seed: 5,
			FaultSet: &FaultSetJSON{Links: [][2]int{{0, 1}}, Routers: []int{4}}},
			"591cd77ef54c260e36e6a05cd72b1b72eb853df2a2eba63494e492a4f4ab2a5e"},
		{"surrogate", &Request{Demo: true, Mesh: "2x2", Seed: 7, Surrogate: true},
			"cf7f8705b392df952194d310edc010d2e4579546a26952645f8d00963fba9a92"},
	} {
		in, err := c.req.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := in.Key(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
