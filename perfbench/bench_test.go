package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// smallConfig shrinks every workload to a few thousand records, so a
// run takes a second or two.
func smallConfig() config {
	cfg := defaultConfig()
	cfg.Sim = hod.SimConfig{Lines: 1, MachinesPerLine: 2, JobsPerMachine: 6, PhaseSamples: 20}
	cfg.NDJSONBatch, cfg.BulkBatch = 100, 500
	cfg.MinRounds, cfg.SetupReps, cfg.RestartSetupReps = 1, 1, 2
	cfg.RecoverReps = 1
	cfg.ResumeEpochs, cfg.ReplayEpochs = 2, 2
	cfg.SnapshotInterval = 50 * time.Millisecond
	return cfg
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEmitsEveryBenchmarkMetric runs every workload of BENCHMARK.json,
// untraced and traced, and checks that the summary line carries
// exactly the metrics the file names, with their units.
func TestEmitsEveryBenchmarkMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := execute(smallConfig(), w.Name, 3, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s traced=%v: checks failed: %v", w.Name, traced, res.Problems)
			}
			sum := res.summary()
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := sum.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			if sum.Attempted < 1 || sum.Failed > sum.Attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, sum.Attempted, sum.Failed)
			}
		}
	}
}

// TestMismatchedOracleFailsRun swaps the cube oracle for one that is
// off by one record and checks that the run fails: correct is false in
// the summary and the exit code is not 0.
func TestMismatchedOracleFailsRun(t *testing.T) {
	for _, workload := range []string{"ingest-ndjson"} {
		cfg := smallConfig()
		cfg.cubeOracle = func(topo wire.Topology, recs []wire.Record) (wire.CubeResponse, error) {
			return oracleCube(topo, recs[:len(recs)-1])
		}
		res, err := execute(cfg, workload, 3, 1, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || len(res.Problems) == 0 {
			t.Fatalf("%s: a wrong oracle passed the run", workload)
		}
		var out, errOut bytes.Buffer
		if code := printResult(&out, &errOut, res); code == 0 {
			t.Fatalf("%s: exit code 0 for a failed check", workload)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatal(err)
		}
		if sum["correct"] != false {
			t.Fatalf("%s: summary says correct=%v", workload, sum["correct"])
		}
	}
}

// TestSummaryLineShape checks the last stdout line has exactly the keys
// the driver reads.
func TestSummaryLineShape(t *testing.T) {
	res, err := execute(smallConfig(), "restart", 4, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := printResult(&out, &errOut, res); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum) != 4 || sum["correct"] == nil || sum["attempted"] == nil || sum["failed"] == nil || sum["metrics"] == nil {
		t.Fatalf("summary keys %v", sum)
	}
}

// TestSameSeedSameTrace checks the inputs depend on the seed alone and
// that job epochs partition the stream.
func TestSameSeedSameTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Sim.Seed = 9
	a, err := genTrace(cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genTrace(cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.records(0, len(a.recs)), b.records(0, len(b.recs))
	if len(ra) != len(rb) || len(a.epochs) != cfg.Sim.JobsPerMachine+1 {
		t.Fatalf("records %d vs %d, epochs %d", len(ra), len(rb), len(a.epochs)-1)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	total := 0
	for _, bs := range a.batches(0, a.epochCount(), 77) {
		if bs.len() > 77 {
			t.Fatalf("batch of %d records", bs.len())
		}
		total += bs.len()
	}
	if total != len(ra) {
		t.Fatalf("batches cover %d of %d records", total, len(ra))
	}
}

// TestFailsWithoutTheRepository runs the command in a directory that
// holds only BENCHMARK.json and the benchmark's files: the build must
// fail, quickly and without printing a result.
func TestFailsWithoutTheRepository(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	root := t.TempDir()
	bf := loadBenchmarkFile(t)
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range bf.Paths {
		if err := copyDir(filepath.Join("..", p), filepath.Join(root, p)); err != nil {
			t.Fatal(err)
		}
	}
	args := append(append([]string{}, bf.Command[1:]...), "--workload", bf.Workloads[0].Name, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	start := time.Now()
	if err := cmd.Run(); err == nil {
		t.Fatalf("command succeeded without the repository:\n%s", out.String())
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("command printed a result:\n%s", out.String())
	}
	if d := time.Since(start); d > 180*time.Second {
		t.Fatalf("took %v", d)
	}
}

// TestSameSeedSameFailures runs a workload twice with one seed and
// checks both runs attempt and fail the same operations of every kind:
// reads follow drained batches, so the server holds the same records
// at every read, and the round count does not depend on the clock.
func TestSameSeedSameFailures(t *testing.T) {
	for _, workload := range []string{"ingest-ndjson", "restart"} {
		var tallies [2]map[string]opTally
		for i := range tallies {
			res, err := execute(smallConfig(), workload, 5, 2, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tallies[i] = res.Ops
		}
		for kind, a := range tallies[0] {
			b := tallies[1][kind]
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("%s %s: %d/%d failed, then %d/%d", workload, kind, a.Failed, a.Attempted, b.Failed, b.Attempted)
			}
		}
		if len(tallies[0]) != len(tallies[1]) {
			t.Errorf("%s: op kinds %v, then %v", workload, tallies[0], tallies[1])
		}
	}
}
