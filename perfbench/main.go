// Command perfbench is the repository's benchmark. It drives one
// workload against an in-process server.Server over loopback HTTP
// through the pkg/hod client, checks the answers, and prints every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run). See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload ingest-ndjson --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps a workload name to its driver.
var workloads = map[string]func(*bench, *fleetTrace) error{
	"ingest-ndjson": runIngestNDJSON,
	"restart":       runRestart,
}

// The process runs on one Go processor. On a two-vCPU virtual machine
// the runtime's idle processors spin for work and hand goroutines
// across threads; that spinning added a fifth to a third to the CPU
// time of the same ingest and grew with hypervisor steal, so the CPU
// times the benchmark compares did not repeat. On one processor that
// spinning is gone, and the wall-clock ingest rate is no lower.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "ingest-ndjson | restart")
	seed := fs.Int64("seed", 1, "trace generator seed")
	seconds := fs.Int("seconds", 20, "run length; sets the number of measured rounds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch data and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	res, err := execute(defaultConfig(), *workload, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return printResult(stdout, stderr, res)
}

// printResult prints the full result document and then the one-line
// summary, which is always the last line. It returns the exit code:
// 1 when a correctness check failed.
func printResult(stdout, stderr io.Writer, res *result) int {
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	sum, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, sum)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", res.Workload, res.Problems)
		return 1
	}
	return 0
}

// execute generates the workload's inputs and runs it. A traced run
// first runs the workload untraced, the baseline of the tracing
// overhead, and then traced. The result document is also written to
// workdir/results.
func execute(cfg config, workload string, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(filepath.Join(workdir, "results"), 0o755); err != nil {
		return nil, err
	}
	cfg.Sim.Seed = seed
	tr, err := genTrace(cfg.Sim)
	if err != nil {
		return nil, err
	}
	steal0, total0, ok0 := cpuTicks()
	host := probeHost(workdir)
	b, err := pass(cfg, workload, tr, seconds, nil, workdir)
	if err != nil {
		return nil, err
	}
	if traced {
		untraced := b
		trc := newTracer(fmt.Sprintf("%s-seed%d-%d", workload, seed, time.Now().UnixNano()))
		if b, err = pass(cfg, workload, tr, seconds, trc, workdir); err != nil {
			return nil, err
		}
		if err := b.layerMetrics(tr, untraced); err != nil {
			return nil, err
		}
		b.res.Correct = b.res.Correct && untraced.res.Correct
		b.res.Problems = append(untraced.res.Problems, b.res.Problems...)
	}
	res := b.res
	host.StealRatio = stealSince(steal0, total0, ok0)
	res.Host = host
	doc, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, map[bool]int{false: 0, true: 1}[traced])
	return res, os.WriteFile(filepath.Join(workdir, "results", name), doc, 0o644)
}

// pass runs the workload once, with or without a tracer, in a scratch
// directory under workdir that is removed afterwards.
func pass(cfg config, workload string, tr *fleetTrace, seconds int, trc *tracer, workdir string) (*bench, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{
		cfg: cfg, seed: cfg.Sim.Seed, seconds: seconds, workdir: dir, tr: trc, ops: newOps(),
		ctx: context.Background(), lat: latencies{}, cpu: latencies{},
		res: &result{
			Workload: workload, Seed: cfg.Sim.Seed, Seconds: seconds, Traced: trc != nil, Correct: true,
			Metrics: map[string]metric{}, Layers: map[string]metric{},
			Config: map[string]any{
				"sim": cfg.Sim, "records": len(tr.recs), "epochs": tr.epochCount(),
				"ndjson_batch": cfg.NDJSONBatch,
				"shards":       shards, "report_workers": reportWorkers, "fsync": "always",
				"snapshot_interval": cfg.SnapshotInterval.String(),
			},
		},
	}
	b.root = trc.begin("run", 0)
	err = workloads[workload](b, tr)
	trc.end(b.root)
	for _, c := range b.conns {
		c.close()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	b.finish()
	return b, nil
}
