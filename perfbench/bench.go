package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// The server's shard count and report fan-out. One report worker
// leaves the second CPU of a two-CPU host to ingest while a report runs.
const (
	shards        = 4
	reportWorkers = 1
)

// interleave is how many records each source of a job epoch
// contributes to the stream in turn.
const interleave = 40

// config sizes a workload. defaultConfig is what the benchmark runs;
// tests shrink it.
type config struct {
	Sim hod.SimConfig // Seed is set from --seed
	// NDJSONBatch is ingest-ndjson's batch size (also restart's resumed
	// stream), BulkBatch that of untimed loads.
	NDJSONBatch, BulkBatch int
	// SnapshotInterval is ingest-ndjson's background snapshot cadence,
	// short so that captures fall inside its measured region.
	SnapshotInterval time.Duration
	// MinRounds is the least number of rounds a run makes; see rounds.
	MinRounds int
	// SetupReps is how often each round sets up a server; setup_s is
	// the mean. RestartSetupReps is the same for restart, whose
	// set-up builds a whole data directory.
	SetupReps, RestartSetupReps int
	// TrickleEpochs is how many job epochs ingest-ndjson streams batch
	// by batch with reads after each batch; restart trickles one.
	TrickleEpochs int
	// RecoverReps is the number of timed recoveries per round.
	RecoverReps int
	// ResumeEpochs is how many job epochs, held back from restart's
	// data dir, each repetition ingests after recovery.
	ResumeEpochs int
	// ReplayEpochs bounds the inputs the traced run replays through
	// the wire and WAL layers.
	ReplayEpochs int
	// cubeOracle computes the expected full cube slice; tests swap it
	// for a wrong one to prove the check fails the run.
	cubeOracle func(wire.Topology, []wire.Record) (wire.CubeResponse, error)
}

func defaultConfig() config {
	return config{
		Sim:              hod.SimConfig{Lines: 2, MachinesPerLine: 3, JobsPerMachine: 24, PhaseSamples: 120},
		NDJSONBatch:      300,
		BulkBatch:        2000,
		SnapshotInterval: time.Second,
		MinRounds:        2,
		SetupReps:        3,
		RestartSetupReps: 3,
		TrickleEpochs:    2,
		RecoverReps:      5,
		ResumeEpochs:     4,
		ReplayEpochs:     4,
		cubeOracle:       oracleCube,
	}
}

func oracleCube(topo wire.Topology, recs []wire.Record) (wire.CubeResponse, error) {
	c, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		return wire.CubeResponse{}, err
	}
	return c.Slice(nil)
}

// bench is the state of one pass of a workload. Rounds add their
// samples to it; finish turns them into metrics.
type bench struct {
	cfg     config
	seed    int64
	seconds int
	workdir string
	tr      *tracer // nil in the untraced pass
	root    int     // the pass's root span
	ops     *ops
	res     *result
	ctx     context.Context
	heap0   uint64 // live heap before the round's server existed

	// Every timed request, pooled over rounds, by op kind: lat holds
	// wall-clock milliseconds, cpu the process CPU milliseconds spent
	// while the request ran.
	lat, cpu   latencies
	setups     []cost        // set-up repetitions
	opens      []cost        // Open on a copied data dir
	firsts     []cost        // first full report after Open
	heaps      []float64     // MiB
	disks      []float64     // B/rec
	ingested   int           // records sent in measured ingest
	ingestWall time.Duration // wall time of the measured ingest
	ingestCPU  time.Duration // CPU time of the measured ingest
	run        runtimeTally

	base       string      // the serving node's URL, for the stats sampler
	drainWaits []float64   // ms, last ack until drained
	snapshot   []byte      // GET /backup, first round of the traced pass
	stats      statsSample // what the stats sampler saw
	cubeCells  int         // total_cells of the last full cube slice
	cellsSeen  []float64   // cells per cube query
	// revNew and revSeen count reports whose data_revision moved since
	// the previous report.
	revNew, revSeen int
	prevRev         uint64
	bodyBytes       int // request body bytes of the measured streams
	bodyRecords     int
	encodedRecords  int     // records the pass encoded into request bodies
	conns           []*conn // every connection, for the SDK's retry count
}

// cost is what one timed step took: wall-clock time, and the CPU time
// the process (client and server together) spent while it ran.
// Hypervisor steal and waits on the disk stretch the wall clock but do
// not count as CPU time, so on a shared host the CPU time of the same
// work repeats where the wall clock does not.
type cost struct{ wall, cpu time.Duration }

// measure runs fn and returns its cost.
func measure(fn func() error) (cost, error) {
	c0, t0 := processCPU(), time.Now()
	err := fn()
	return cost{wall: time.Since(t0), cpu: processCPU() - c0}, err
}

// dial opens a connection and keeps it for the retry count.
func (b *bench) dial(base string) *conn {
	c := dial(base)
	b.conns = append(b.conns, c)
	return c
}

// rounds runs round a fixed number of times: the pass's seconds over
// perRound, the length of one round on a two-vCPU Xeon virtual
// machine, and at least cfg.MinRounds. The count depends on --seconds
// alone, so two runs with the same seed send the same requests and any
// that fail, fail in both.
func (b *bench) rounds(perRound float64, round func(i int) error) error {
	n := max(b.cfg.MinRounds, int(math.Round(float64(b.seconds)/perRound)))
	for i := 0; i < n; i++ {
		if err := round(i); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// finish turns the pooled samples into the end-to-end metrics, which
// are CPU times, and the wall-clock figures the result document keeps
// under info. A CPU time per operation is the total over the
// operations divided by their number, so the collections the work
// causes count in full whichever requests they overlap.
func (b *bench) finish() {
	r := b.res
	r.set("setup_s", "s", mean(cpuOf(b.setups, 1e9)), len(b.setups))
	r.set("ingest_cpu_us_per_record", "us/rec", float64(b.ingestCPU)/1e3/float64(max(b.ingested, 1)), b.ingested)
	r.set("report_cpu_ms", "ms", mean(b.cpu["report"]), len(b.cpu["report"]))
	r.set("cube_cpu_ms", "ms", mean(b.cpu["cube"]), len(b.cpu["cube"]))
	r.set("recover_cpu_ms", "ms", mean(cpuOf(b.opens, 1e6)), len(b.opens))
	r.set("first_report_cpu_ms", "ms", mean(cpuOf(b.firsts, 1e6)), len(b.firsts))
	r.set("disk_bytes_per_record", "B/rec", median(b.disks), len(b.disks))
	r.set("heap_live_mb", "MiB", median(b.heaps), len(b.heaps))
	tally, att, fail := b.ops.tally()
	r.Ops, r.Attempted, r.Failed = tally, att, fail
	r.set("ops_ok_ratio", "ratio", 1-float64(fail)/float64(max(att, 1)), att)
	for name, m := range r.Metrics {
		if m.Count == 0 {
			r.problem("metric %s has no samples", name)
			r.Metrics[name] = metric{Unit: m.Unit}
		}
	}

	info := func(name, unit string, xs []float64, q float64) {
		if len(xs) > 0 {
			r.Info[name] = metric{Value: quantile(xs, q), Unit: unit, Count: len(xs)}
		}
	}
	r.Info = map[string]metric{}
	info("setup_wall_s", "s", wallOf(b.setups, 1e9), 0.5)
	if b.ingestWall > 0 {
		r.Info["ingest_records_per_s"] = metric{Value: float64(b.ingested) / b.ingestWall.Seconds(), Unit: "rec/s", Count: b.ingested}
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}} {
		info("ingest_ack_"+q.name+"_ms", "ms", b.lat["ingest"], q.q)
		info("report_"+q.name+"_ms", "ms", b.lat["report"], q.q)
		info("cube_"+q.name+"_ms", "ms", b.lat["cube"], q.q)
	}
	info("recover_s", "s", wallOf(b.opens, 1e9), 0.5)
	info("first_report_ms", "ms", wallOf(b.firsts, 1e6), 0.5)
}

// cpuOf and wallOf list one side of costs in units of unit nanoseconds.
func cpuOf(cs []cost, unit float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.cpu) / unit
	}
	return out
}

func wallOf(cs []cost, unit float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.wall) / unit
	}
	return out
}

// serverOptions is the durable production configuration every
// workload's server runs with.
func (b *bench) serverOptions(dir string, snapshot time.Duration) server.Options {
	return server.Options{
		Shards: shards, Workers: reportWorkers,
		DataDir: dir, Fsync: "always", SnapshotInterval: snapshot,
	}
}

// call times one SDK call as a span, counts it, and returns its cost.
func (b *bench) call(kind string, parent int, fn func() error) (cost, error) {
	id := b.tr.begin("server."+kind, parent)
	c, err := measure(fn)
	b.tr.end(id)
	b.ops.add(kind, err, c.wall)
	return c, err
}

// sample pools one timed request of kind.
func (b *bench) sample(kind string, c cost) {
	b.lat.add(kind, c.wall)
	b.cpu.add(kind, c.cpu)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (b *bench) markHeapBase() { b.heap0 = liveHeap() }

// noteHeap records the live heap the server added. It takes the
// smallest of several readings 120 ms apart, so that with a running
// snapshot loop a capture's transient copy does not count as live
// state.
func (b *bench) noteHeap(readings int) {
	least := liveHeap()
	for i := 1; i < readings; i++ {
		time.Sleep(120 * time.Millisecond)
		least = min(least, liveHeap())
	}
	b.heaps = append(b.heaps, (float64(least)-float64(b.heap0))/(1<<20))
}

// setupNode builds a server with a fresh data dir and registers the
// plant, cfg.SetupReps times, timing each. Every build but the last is
// closed, and the last is returned.
func (b *bench) setupNode(tr *fleetTrace, snapshot time.Duration) (*node, *conn, string, error) {
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp(b.workdir, "data-")
		if err != nil {
			return nil, nil, "", err
		}
		id := b.tr.begin("setup", b.root)
		var (
			n *node
			c *conn
		)
		cs, err := measure(func() (err error) {
			n, c, err = b.openRegistered(dir, tr, snapshot, id)
			return err
		})
		b.setups = append(b.setups, cs)
		b.tr.end(id)
		if err != nil {
			return nil, nil, "", err
		}
		if i+1 >= b.cfg.SetupReps {
			b.base = n.base
			return n, c, dir, nil
		}
		c.close()
		n.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, "", err
		}
	}
}

func (b *bench) openRegistered(dir string, tr *fleetTrace, snapshot time.Duration, parent int) (*node, *conn, error) {
	id := b.tr.begin("server.open", parent)
	n, err := startNode(b.serverOptions(dir, snapshot))
	b.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	c := b.dial(n.base)
	if err := register(b.ctx, c, tr); err != nil {
		c.close()
		n.close()
		return nil, nil, err
	}
	return n, c, nil
}

// latencies collects per-operation times in milliseconds. A failed
// request counts with the time it took to fail: the user waited that
// long, and the failure itself shows in ops_ok_ratio.
type latencies map[string][]float64

func (l latencies) add(kind string, d time.Duration) {
	l[kind] = append(l[kind], float64(d)/1e6)
}

// checkIngested verifies the server holds exactly the records sent:
// accepted_records on /stats equals their number, and the full cube
// slice equals the batch-built cube over the same records.
func (b *bench) checkIngested(c *conn, tr *fleetTrace, sent int) {
	st, err := c.Stats(b.ctx, plantID)
	if err != nil {
		b.res.problem("stats: %v", err)
		return
	}
	b.stats.note(st)
	if st.AcceptedRecords != uint64(sent) {
		b.res.problem("accepted_records %d, sent %d", st.AcceptedRecords, sent)
	}
	got, err := c.CubeSlice(b.ctx, plantID, nil)
	if err != nil {
		b.res.problem("cube slice: %v", err)
		return
	}
	b.cubeCells = got.TotalCells
	want, err := b.cfg.cubeOracle(tr.topo, tr.records(0, sent))
	if err != nil {
		b.res.problem("cube oracle: %v", err)
		return
	}
	if err := sameCube(got, want); err != nil {
		b.res.problem("served cube differs from hod.CubeFromRecords: %v", err)
	}
}

func sameCube(got, want wire.CubeResponse) error {
	if got.TotalCells != want.TotalCells || len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("%d cells (%d total), want %d (%d total)", len(got.Cells), got.TotalCells, len(want.Cells), want.TotalCells)
	}
	for i := range got.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if fmt.Sprint(g.Coord) != fmt.Sprint(w.Coord) || g.Count != w.Count || g.Sum != w.Sum || g.Min != w.Min || g.Max != w.Max {
			return fmt.Errorf("cell %d: got %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// noteDisk records the data dir's bytes per stored record.
func (b *bench) noteDisk(dir string, records int) error {
	bytes, err := dirBytes(dir)
	if err != nil {
		return fmt.Errorf("sizing data dir: %w", err)
	}
	b.disks = append(b.disks, float64(bytes)/float64(records))
	return nil
}

// recoverRep copies a pristine data dir (untimed: recovery rewrites
// it), times Open and the first full report after it, runs after on
// the recovered server, and kills it. want, when non-nil, is the report
// the recovery must reproduce byte for byte.
func (b *bench) recoverRep(pristine string, want []byte, after func(n *node, c *conn) error) error {
	dir, err := os.MkdirTemp(b.workdir, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(pristine, dir); err != nil {
		return err
	}
	runtime.GC()
	rep := b.tr.begin("restart", b.root)
	defer b.tr.end(rep)
	id := b.tr.begin("server.open", rep)
	var n *node
	co, err := measure(func() (err error) {
		n, err = startNode(b.serverOptions(dir, time.Hour))
		return err
	})
	b.tr.end(id)
	b.ops.add("open", err, co.wall)
	if err != nil {
		return err
	}
	b.opens = append(b.opens, co)
	defer n.kill()
	c := b.dial(n.base)
	defer c.close()
	cr, err := b.call("report", rep, func() error {
		_, err := c.Report(b.ctx, plantID, hod.ReportQuery{Level: hod.LevelPhase, Top: 512})
		return err
	})
	b.firsts = append(b.firsts, cr)
	if want != nil {
		got, gerr := c.rawGet(b.ctx, n.base, fullReportPath())
		switch {
		case err != nil || gerr != nil:
			b.res.problem("report after recovery: %v %v", err, gerr)
		case string(got) != string(want):
			b.res.problem("report after recovery differs from the drained run's report (%d vs %d bytes)", len(got), len(want))
		}
	}
	if after == nil {
		return nil
	}
	return after(n, c)
}

// readOp is one read of the trickle mix.
type readOp struct {
	kind string // report, cube, rollup or alerts: the ops bucket
	do   func(ctx context.Context, c *conn) (readResult, error)
}

// readResult is what the benchmark keeps of a read's answer.
type readResult struct {
	rev   uint64 // data_revision of a report
	cells int    // cells of a cube answer
}

var fullReport = readOp{"report", func(ctx context.Context, c *conn) (readResult, error) {
	r, err := c.Report(ctx, plantID, hod.ReportQuery{Level: hod.LevelPhase, Top: 20})
	return readResult{rev: r.DataRevision}, err
}}

func cubeRead(query func(ctx context.Context, c *conn) (wire.CubeResponse, error)) readOp {
	return readOp{"cube", func(ctx context.Context, c *conn) (readResult, error) {
		r, err := query(ctx, c)
		return readResult{cells: len(r.Cells) + len(r.Members)}, err
	}}
}

func cubeSlice(m string) readOp {
	return cubeRead(func(ctx context.Context, c *conn) (wire.CubeResponse, error) {
		return c.CubeSlice(ctx, plantID, map[string]string{"machine": m})
	})
}

var cubeRollup = cubeRead(func(ctx context.Context, c *conn) (wire.CubeResponse, error) {
	return c.CubeRollup(ctx, plantID, []string{"line", "sensor"}, nil)
})

func cubeDrilldown(m string) readOp {
	return cubeRead(func(ctx context.Context, c *conn) (wire.CubeResponse, error) {
		return c.CubeDrilldown(ctx, plantID, "phase", map[string]string{"machine": m})
	})
}

var (
	rollupRead = readOp{"rollup", func(ctx context.Context, c *conn) (readResult, error) {
		_, err := c.Rollup(ctx, plantID, "machine")
		return readResult{}, err
	}}
	alertsRead = readOp{"alerts", func(ctx context.Context, c *conn) (readResult, error) {
		_, err := c.Alerts(ctx, plantID, 50)
		return readResult{}, err
	}}
)

// trickleReads is what follows trickled batch i: a full report, one
// cube query (a slice, a roll-up and a drill-down in turn, the machine
// rotating) and /rollup or /alerts in turn. Every read follows fresh
// data, so every report costs a recomputation and every cube query a
// merge.
func trickleReads(tr *fleetTrace, i int) []readOp {
	m := tr.machines[i/3%len(tr.machines)]
	cube := []readOp{cubeSlice(m), cubeRollup, cubeDrilldown(m)}[i%3]
	return []readOp{fullReport, cube, []readOp{rollupRead, alertsRead}[i%2]}
}

// read sends one read, pools its cost and keeps what the per-layer
// metrics need from the answer.
func (b *bench) read(c *conn, op readOp, parent int) {
	var res readResult
	cs, err := b.call(op.kind, parent, func() (err error) {
		res, err = op.do(b.ctx, c)
		return err
	})
	b.sample(op.kind, cs)
	if err != nil {
		return
	}
	switch op.kind {
	case "report":
		b.revSeen++
		if res.rev != b.prevRev {
			b.revNew++
		}
		b.prevRev = res.rev
	case "cube":
		b.cellsSeen = append(b.cellsSeen, float64(res.cells))
	}
}

// trickle sends the stream's batches closed loop, as for a dashboard
// that refreshes after each upload: after each batch it waits until the
// server has folded it and then sends trickleReads. The server holds
// the same records at every read in every run, so the same reads fail
// in every run with the same seed. The batches count as operations but
// are not timed as ingest. It returns how many records were sent.
func (b *bench) trickle(c *conn, tr *fleetTrace, s *stream, stored int) (int, error) {
	phase := b.tr.begin("phase.read", b.root)
	defer b.tr.end(phase)
	sent := 0
	for i, body := range s.bodies {
		if _, err := b.call("ingest", phase, func() error {
			_, err := c.IngestBody(b.ctx, plantID, "application/x-ndjson", body)
			return err
		}); err != nil {
			return sent, fmt.Errorf("trickle batch %d: %w", i, err)
		}
		sent += s.batches[i].len()
		if err := c.WaitDrained(b.ctx, plantID, uint64(stored+sent)); err != nil {
			return sent, fmt.Errorf("trickle drain %d: %w", i, err)
		}
		for _, op := range trickleReads(tr, i) {
			b.read(c, op, phase)
		}
	}
	return sent, nil
}
