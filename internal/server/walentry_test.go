package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// gobWALEntries are WAL payloads captured from the binary that still
// wrote gob walEntry values: a job-metadata entry and a record chunk
// for binaryTestTopo's machines.
var gobWALEntries = []string{"testdata/gob-wal-jobs.bin", "testdata/gob-wal-records.bin"}

// readTree maps every file and directory under root to its contents.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			tree[path] = "dir"
			return nil
		}
		buf, err := os.ReadFile(path)
		tree[path] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOpenRefusesGobWALEntry: a data dir whose WAL tail holds a gob
// entry from before the tagged entry format is refused at Open with
// ErrWALFormat, naming the shard, seq and byte — and the refusal
// writes nothing: no re-baseline snapshot, no compaction.
func TestOpenRefusesGobWALEntry(t *testing.T) {
	for _, name := range gobWALEntries {
		t.Run(filepath.Base(name), func(t *testing.T) {
			entry, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			srv := New(durableOptions(dir))
			ts := httptest.NewServer(srv.Handler())
			topo := binaryTestTopo()
			register(t, ts.URL, topo)
			postChunks(t, ts.URL, topo.ID, [][]Record{binaryTestRecords()})
			metas, _ := json.Marshal([]JobMeta{{Machine: "m0", Job: "job-a", Setup: []float64{1}}})
			mustStatus(t, postRetry(t, ts.URL+"/v1/plants/"+topo.ID+"/jobs", "application/json", metas), http.StatusAccepted)
			waitDrained(t, ts.URL, topo.ID, uint64(len(binaryTestRecords())))
			ts.Close()
			srv.Close() // final snapshot: the gob entry lands past it

			l, err := wal.Open(filepath.Join(dir, plantDirName(topo.ID), walDirName(0)), wal.Options{Policy: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := l.Append(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			before := readTree(t, dir)
			again := New(durableOptions(dir))
			defer again.Close()
			err = again.Open()
			if !errors.Is(err, ErrWALFormat) {
				t.Fatalf("Open = %v, want ErrWALFormat", err)
			}
			for _, want := range []string{"shard 0", fmt.Sprintf("seq %d", seq), fmt.Sprintf("0x%02x", entry[0])} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not name %q", err, want)
				}
			}
			if _, ok := again.plant(topo.ID); ok {
				t.Error("refused plant was registered")
			}
			if after := readTree(t, dir); !reflect.DeepEqual(before, after) {
				t.Error("refused Open changed the data dir")
			}
		})
	}
}

// walFuzzPlant is the small fixed plant FuzzWALEntry decodes against.
func walFuzzPlant() *plantState {
	ps := newPlantState(binaryTestTopo())
	ps.makeShards(2, 8)
	return ps
}

// refPayload encodes refs the way admit logs them.
func refPayload(t testing.TB, ps *plantState, refs []recordRef) []byte {
	t.Helper()
	p, err := ps.appendRefFrame([]byte{walRefTag}, new(wire.Frame), refs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzWALEntry feeds arbitrary payloads to the WAL entry decoder. It
// must never panic; a payload without one of the two tags is
// ErrWALFormat; a decoded job entry re-encodes to the same metadata;
// decoded records re-encoded by appendRefFrame decode to the same refs.
func FuzzWALEntry(f *testing.F) {
	seed := walFuzzPlant()
	refs, rejected, firstErr := seed.resolveRecords(nil, binaryTestRecords())
	if rejected > 0 {
		f.Fatal(firstErr)
	}
	frame := refPayload(f, seed, refs)
	if e, err := seed.decodeWALEntry(frame); err != nil || !reflect.DeepEqual(e.refs, refs) {
		f.Fatalf("record frame decoded to %v (err %v), want %v", e.refs, err, refs)
	}
	metas := []JobMeta{
		{Machine: "m0", Job: "job-a", Setup: []float64{1, -2.5e-7}, CAQ: []float64{0.5}},
		{Machine: "m1", Job: "job-c", Setup: []float64{}, Faulty: true},
	}
	jobs, err := encodeJobsEntry(metas)
	if err != nil {
		f.Fatal(err)
	}
	if e, err := seed.decodeWALEntry(jobs); err != nil || !reflect.DeepEqual(e.jobs, metas) {
		f.Fatalf("job entry decoded to %+v (err %v), want %+v", e.jobs, err, metas)
	}
	f.Add(frame)
	f.Add(jobs)
	for _, name := range gobWALEntries {
		entry, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(entry)
	}
	for _, cut := range []int{0, 1, 7, len(frame) / 2, len(frame) - 1} {
		f.Add(frame[:cut])
	}
	f.Add(jobs[:len(jobs)/2])

	f.Fuzz(func(t *testing.T, p []byte) {
		ps := walFuzzPlant()
		e, err := ps.decodeWALEntry(p)
		if len(p) == 0 || (p[0] != walRefTag && p[0] != walJobsTag) {
			if !errors.Is(err, ErrWALFormat) {
				t.Fatalf("untagged payload: err = %v, want ErrWALFormat", err)
			}
			return
		}
		if errors.Is(err, ErrWALFormat) {
			t.Fatalf("tagged payload refused as an unknown format: %v", err)
		}
		if err != nil {
			return
		}
		var again walEntry
		if p[0] == walJobsTag {
			buf, err := encodeJobsEntry(e.jobs)
			if err != nil {
				t.Fatal(err)
			}
			if again, err = ps.decodeWALEntry(buf); err != nil || !reflect.DeepEqual(again.jobs, e.jobs) {
				t.Fatalf("job entry round trip: %+v (err %v), want %+v", again.jobs, err, e.jobs)
			}
			return
		}
		if again, err = ps.decodeWALEntry(refPayload(t, ps, e.refs)); err != nil || again.rejected != 0 ||
			!reflect.DeepEqual(again.refs, e.refs) {
			t.Fatalf("record frame round trip: %v (rejected %d, err %v), want %v", again.refs, again.rejected, err, e.refs)
		}
	})
}
