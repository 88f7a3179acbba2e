package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// TestClusterControlSurfaceGuard pins the contract the route table
// documents: the mutating node-side cluster endpoints (membership,
// replicate, release) are inert outside cluster mode and demand the
// internal header inside it. Before this guard, any client of a
// standalone open server could POST /v1/cluster/release and have the
// plant's data dir removed.
func TestClusterControlSurfaceGuard(t *testing.T) {
	mutating := []string{"/v1/cluster/membership", "/v1/cluster/replicate", "/v1/cluster/release"}

	post := func(ts *httptest.Server, path, body string, internal bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if internal {
			req.Header.Set(cluster.InternalHeader, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Standalone server (no -node-id): the surface is inert, header or
	// not.
	standalone := New(Options{Shards: 2, QueueDepth: 16})
	defer standalone.Close()
	tsS := httptest.NewServer(standalone.Handler())
	defer tsS.Close()
	for _, path := range mutating {
		for _, internal := range []bool{false, true} {
			if resp := post(tsS, path, `{"plant":"p1"}`, internal); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("standalone POST %s (internal=%v) = %d, want 400", path, internal, resp.StatusCode)
			}
		}
	}

	// Cluster node: external traffic (no internal header) is refused
	// with a 403 and mutates nothing; internal traffic reaches the
	// handler.
	node := New(Options{Shards: 2, QueueDepth: 16, DataDir: t.TempDir(), Fsync: "none", ClusterNodeID: "n1"})
	if err := node.Open(); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	tsN := httptest.NewServer(node.Handler())
	defer tsN.Close()

	register(t, tsN.URL, Topology{ID: "p1", Lines: []TopoLine{{ID: "l1", Machines: []string{"m1"}}}})
	for _, path := range mutating {
		if resp := post(tsN, path, `{"plant":"p1"}`, false); resp.StatusCode != http.StatusForbidden {
			t.Errorf("cluster node POST %s without internal header = %d, want 403", path, resp.StatusCode)
		}
	}
	if _, ok := node.plant("p1"); !ok {
		t.Fatal("unauthenticated release attempt removed the plant")
	}
	// With the header, release goes through (and is idempotent).
	if resp := post(tsN, "/v1/cluster/release", `{"plant":"p1"}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("internal release = %d, want 200", resp.StatusCode)
	}
	if _, ok := node.plant("p1"); ok {
		t.Fatal("internal release did not remove the plant")
	}
	if resp := post(tsN, "/v1/cluster/release", `{"plant":"p1"}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated internal release = %d, want 200", resp.StatusCode)
	}
}

// TestApplyFramesTornVersusCorrupt pins the tailer's decode contract:
// a torn trailing frame (response cut mid-frame) is silently retried
// from the cursor, while a structurally corrupt frame — a length claim
// past the cap, or a payload that does not decode — surfaces as
// errShipCorrupt so the tail loop stops refetching the same bad bytes.
func TestApplyFramesTornVersusCorrupt(t *testing.T) {
	tailer := &walTailer{after: make([]uint64, 1)}

	// Torn mid-header and torn mid-payload: no error, no progress.
	var torn bytes.Buffer
	if err := cluster.WriteShipFrame(&torn, 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, torn.Len() - 3} {
		progress, err := tailer.applyFrames(nil, 0, bytes.NewReader(torn.Bytes()[:cut]))
		if err != nil || progress {
			t.Fatalf("torn frame cut at %d: progress=%v err=%v, want silent retry", cut, progress, err)
		}
	}

	// A frame whose header claims an absurd length is corruption, not a
	// torn tail.
	var huge bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 7)
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<30)
	huge.Write(hdr[:])
	if _, err := tailer.applyFrames(nil, 0, &huge); !errors.Is(err, errShipCorrupt) {
		t.Fatalf("oversized length claim: err = %v, want errShipCorrupt", err)
	}

	// A complete frame whose payload is not a WAL entry is corruption
	// too.
	var garbage bytes.Buffer
	if err := cluster.WriteShipFrame(&garbage, 7, []byte("not a gob entry")); err != nil {
		t.Fatal(err)
	}
	if _, err := tailer.applyFrames(nil, 0, &garbage); !errors.Is(err, errShipCorrupt) {
		t.Fatalf("undecodable payload: err = %v, want errShipCorrupt", err)
	}
}

// TestSeedStandbyRefusesForgedSnapshot: a standby seeds from its
// owner's backup, and a peer's bytes are as untrusted as a client's. A
// forged snapshot — an oversized setup vector, or a topology that fails
// Validate — is refused before anything is installed: no plant is
// registered and no plant dir is left on disk.
func TestSeedStandbyRefusesForgedSnapshot(t *testing.T) {
	topo := topoWithDefaults(Topology{ID: "seeded", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1"}}}})
	for name, mutate := range map[string]func(*snapState){
		"oversized setup": func(st *snapState) {
			sj := st.Machines["l/m1"].Jobs["j1"]
			sj.Setup = make([]float64, topo.SetupDims+1)
			st.Machines["l/m1"].Jobs["j1"] = sj
		},
		"invalid topology": func(st *snapState) {
			st.Topo.Lines = append(st.Topo.Lines, TopoLine{ID: "l2", Machines: []string{"l/m1"}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			st := &snapState{Topo: topo, Machines: map[string]snapMachine{
				"l/m1": {Rev: 1, Jobs: map[string]snapJob{"j1": {HasMeta: true}}},
			}}
			mutate(st)
			payload, err := encodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			body := wal.EncodeSnapshot(1, payload)
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/plants/seeded/backup" || r.URL.Query().Get("positions") != "1" {
					http.NotFound(w, r)
					return
				}
				w.Write(body)
			}))
			defer owner.Close()

			dir := t.TempDir()
			opts := durableOptions(dir)
			opts.ClusterNodeID = "standby"
			node := New(opts)
			defer node.Close()
			node.cluster.mem = wire.ClusterMembership{Epoch: 1, Nodes: []wire.ClusterNode{
				{ID: "owner", Addr: owner.URL, State: wire.NodeActive},
			}}
			var bad *badSnapshotError
			if err := node.seedStandby("seeded"); !errors.As(err, &bad) {
				t.Fatalf("seeding from a forged snapshot: err = %v, want the snapshot refused", err)
			}
			if _, ok := node.plant("seeded"); ok {
				t.Fatal("forged snapshot registered a plant")
			}
			if _, err := os.Stat(filepath.Join(dir, plantDirName("seeded"))); !os.IsNotExist(err) {
				t.Fatalf("forged snapshot left a plant dir behind (stat err %v)", err)
			}
		})
	}
}

// TestTailerLogsJobEntryVerbatim: a standby applies a shipped job
// entry and appends it to its own shard-0 log byte for byte — the same
// payload a later restart of the standby replays.
func TestTailerLogsJobEntryVerbatim(t *testing.T) {
	ps := newPlantState(binaryTestTopo())
	ps.makeShards(2, 8)
	if err := ps.attachDur(t.TempDir(), wal.Options{Policy: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	defer ps.dur.close()
	payload, err := encodeJobsEntry([]JobMeta{{Machine: "m0", Job: "job-a", Setup: []float64{1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	tailer := &walTailer{after: make([]uint64, 1)}
	if err := tailer.apply(ps, payload); err != nil {
		t.Fatal(err)
	}
	if js := ps.machines["m0"].jobs["job-a"]; js == nil || !js.hasMeta || js.setup[0] != 1.5 {
		t.Fatalf("shipped job metadata not applied: %+v", js)
	}
	var logged [][]byte
	if err := ps.dur.logs[0].ReadAfter(0, 1<<20, func(_ uint64, p []byte) error {
		logged = append(logged, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || !bytes.Equal(logged[0], payload) {
		t.Fatalf("standby logged %q, want the shipped entry %q verbatim", logged, payload)
	}
}
