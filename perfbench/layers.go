package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/intern"
	"repro/internal/olap"
	"repro/internal/plant"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// layerMetrics derives the per-layer metrics of the traced pass: from
// the spans around the benchmark's SDK calls, from /stats and the SDK's
// counters, and from replaying the workload's own generated inputs
// through the exported functions of wire, wal, olap, core, gateway and
// intern. untraced is the same workload's untraced pass, the baseline
// of the tracing overhead.
func (b *bench) layerMetrics(tr *fleetTrace, untraced *bench) error {
	spans := b.tr.snapshot()
	b.serverLayer(spans, selfTimes(spans))
	b.runtimeLayer(untraced)
	top := filepath.Dir(b.workdir) // the pass's own directory is gone
	dir, err := os.MkdirTemp(top, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b.workdir = dir
	replays := []struct {
		name string
		fn   func(*fleetTrace) error
	}{
		{"wire", b.replayWire},
		{"wal", b.replayWAL},
		{"olap", b.replayOLAP},
		{"core", b.replayCore},
		{"gateway", b.replayGateway},
		{"intern", b.replayIntern},
	}
	for _, r := range replays {
		id := b.tr.begin("replay."+r.name, b.root)
		err := r.fn(tr)
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.name, err)
		}
	}

	for name, m := range b.res.Layers {
		if math.IsNaN(m.Value) {
			b.unmeasured(name, m.Unit, "the workload sends no such request")
		}
	}
	spans = b.tr.snapshot()
	b.res.SelfMillis = map[string]float64{}
	for name, d := range layerSelf(spans) {
		b.res.SelfMillis[name] = float64(d) / 1e6
	}
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", b.res.Workload, b.seed)
	b.res.SpansFile = filepath.Join(top, "results", name)
	return writeSpans(b.res.SpansFile, spans)
}

// serverLayer reports the endpoint self times and failures, and what
// /stats and the SDK counted.
func (b *bench) serverLayer(spans []span, self map[int]int64) {
	tally, _, _ := b.ops.tally()
	for _, kind := range []string{"ingest", "report", "cube", "rollup", "alerts"} {
		xs := selfMillis(spans, self, "server."+kind)
		b.res.layer("server."+kind+".self_ms_p50", "ms", quantile(xs, 0.5), len(xs))
	}
	for _, kind := range []string{"ingest", "report", "cube"} {
		t := tally[kind]
		b.res.layer("server."+kind+".failed", "count", float64(t.Failed), t.Attempted)
	}
	var retried uint64
	for _, c := range b.conns {
		retried += c.Retried()
	}
	b.res.layer("server.ingest.retried", "count", float64(retried), tally["ingest"].Attempted)
	b.res.layer("server.report.new_revision_ratio", "ratio", float64(b.revNew)/float64(max(b.revSeen, 1)), b.revSeen)
	b.res.layer("server.cube.cells_per_query", "cells", mean(b.cellsSeen), len(b.cellsSeen))
	b.res.layer("server.drain.wait_ms", "ms", median(b.drainWaits), len(b.drainWaits))
	opens := selfMillis(spans, self, "server.open")
	b.res.layer("server.open.ms", "ms", median(opens), len(opens))
	b.stats.mu.Lock()
	st, n, deepest := b.stats.last, b.stats.n, b.stats.maxQueue
	b.stats.mu.Unlock()
	b.res.layer("server.queue_depth.max", "batches", float64(deepest), n)
	b.res.layer("server.shed_batches", "count", float64(st.ShedBatches), n)
	b.res.layer("server.rejected_records", "count", float64(st.RejectedRecords), n)
	b.res.layer("server.wal_segments", "count", float64(st.WALSegments), n)
	b.res.layer("olap.cells", "cells", float64(b.cubeCells), 1)
	if _, ok := b.res.Layers["server.backup.ms"]; !ok {
		b.unmeasured("server.backup.ms", "ms", "no backup was taken on this workload")
		b.unmeasured("server.backup.bytes", "B", "no backup was taken on this workload")
	}
}

// runtimeLayer reports the runtime's counters over the measured
// regions and the tracing overhead.
func (b *bench) runtimeLayer(untraced *bench) {
	r := b.run
	b.res.layer("go.alloc_bytes_per_record", "B/rec", float64(r.alloc)/float64(max(r.recs, 1)), r.recs)
	b.res.layer("go.gc_cycles", "count", float64(r.cycles), r.cycles)
	b.res.layer("go.gc_pause_ms", "ms", float64(r.pause)/1e6, r.cycles)
	b.res.layer("go.cpu_utilization", "ratio", r.cpu.Seconds()/r.wall.Seconds()/float64(runtime.NumCPU()), 1)
	traced, att, _ := b.ops.tally()
	plain, _, _ := untraced.ops.tally()
	b.res.layer("trace.overhead_ratio", "ratio", overhead(traced, plain), att)
	b.res.layer("wire.body_bytes_per_record", "B/rec", float64(b.bodyBytes)/float64(max(b.bodyRecords, 1)), b.bodyRecords)
}

// unmeasured reports a layer metric that has no value on this
// workload as 0 with a count of 0, and records why.
func (b *bench) unmeasured(name, unit, reason string) {
	b.res.layer(name, unit, 0, 0)
	if b.res.Unmeasured == nil {
		b.res.Unmeasured = map[string]string{}
	}
	b.res.Unmeasured[name] = reason
}

// timed runs fn as one replay span and returns its duration.
func (b *bench) timed(name string, fn func() error) (time.Duration, error) {
	id := b.tr.begin(name, b.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	b.tr.end(id)
	return d, err
}

func perUnit(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(max(n, 1))
}

// replayBatches is the replay input of the wire and WAL layers: the
// first cfg.ReplayEpochs job epochs in ingest-ndjson's batch size.
func (b *bench) replayBatches(tr *fleetTrace) [][]wire.Record {
	var out [][]wire.Record
	for _, bs := range tr.batches(0, min(b.cfg.ReplayEpochs, tr.epochCount()), b.cfg.NDJSONBatch) {
		out = append(out, tr.records(bs.lo, bs.hi))
	}
	return out
}

// replayWire decodes the replay batches as NDJSON through
// wire.DecodeRecords and as binary frames through wire.ReadFrame, and
// reports the client-side encode time the workload's spans recorded.
func (b *bench) replayWire(tr *fleetTrace) error {
	batches := b.replayBatches(tr)
	var nd, bin [][]byte
	recs := 0
	for _, batch := range batches {
		body, err := wire.EncodeNDJSON(batch)
		if err != nil {
			return err
		}
		nd = append(nd, body)
		if body, err = wire.EncodeBinary(batch); err != nil {
			return err
		}
		bin = append(bin, body)
		recs += len(batch)
	}
	d, err := b.timed("wire.DecodeRecords", func() error {
		for _, body := range nd {
			if _, err := wire.DecodeRecords(bytes.NewReader(body), "application/x-ndjson"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.res.layer("wire.ndjson_decode.ns_per_record", "ns/rec", perUnit(d, recs, time.Nanosecond), recs)
	var f wire.Frame
	frames := 0
	d, err = b.timed("wire.ReadFrame", func() error {
		for _, body := range bin {
			r := bytes.NewReader(body)
			for r.Len() > 0 {
				if err := wire.ReadFrame(r, &f); err != nil {
					return err
				}
				frames += f.Len()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if frames != recs {
		return fmt.Errorf("ReadFrame saw %d records, want %d", frames, recs)
	}
	b.res.layer("wire.frame_read.ns_per_record", "ns/rec", perUnit(d, recs, time.Nanosecond), recs)
	var enc time.Duration
	for _, s := range b.tr.snapshot() {
		if s.Name == "wire.encode" {
			enc += time.Duration(s.dur())
		}
	}
	b.res.layer("wire.encode.ns_per_record", "ns/rec", perUnit(enc, b.encodedRecords, time.Nanosecond), b.encodedRecords)
	return nil
}

// replayWAL appends the replay batches as binary frames to a fresh
// wal.Log under the workload's fsync policy (always: one group fsync
// per batch), replays it, and saves and loads the backup snapshot.
func (b *bench) replayWAL(tr *fleetTrace) error {
	dir, err := os.MkdirTemp(b.workdir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "log"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	var appendD, syncD time.Duration
	recs, syncs := 0, 0
	for _, batch := range b.replayBatches(tr) {
		body, err := wire.EncodeBinary(batch)
		if err != nil {
			log.Close()
			return err
		}
		payload := body[4:] // the frame without its length prefix
		t0 := time.Now()
		seq, err := log.AppendBuffered(payload)
		t1 := time.Now()
		if err == nil {
			err = log.SyncTo(seq)
		}
		t2 := time.Now()
		b.tr.record("wal.Append", b.root, t0, t1)
		b.tr.record("wal.SyncTo", b.root, t1, t2)
		if err != nil {
			log.Close()
			return err
		}
		appendD += t1.Sub(t0)
		syncD += t2.Sub(t1)
		recs += len(batch)
		syncs++
	}
	if err := log.Close(); err != nil {
		return err
	}
	size, err := dirBytes(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	b.res.layer("wal.append.ns_per_record", "ns/rec", perUnit(appendD, recs, time.Nanosecond), recs)
	b.res.layer("wal.sync.us_per_call", "us", perUnit(syncD, syncs, time.Microsecond), syncs)
	b.res.layer("wal.bytes_per_record", "B/rec", float64(size)/float64(recs), recs)

	replayed := 0
	d, err := b.timed("wal.Replay", func() error {
		log, err := wal.Open(filepath.Join(dir, "log"), wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			return err
		}
		defer log.Close()
		var f wire.Frame
		return log.Replay(0, func(_ uint64, p []byte) error {
			if err := wire.DecodeFrame(p, &f); err != nil {
				return err
			}
			replayed += f.Len()
			return nil
		})
	})
	if err != nil {
		return err
	}
	if replayed != recs {
		return fmt.Errorf("WAL replay saw %d records, want %d", replayed, recs)
	}
	b.res.layer("wal.replay.ns_per_record", "ns/rec", perUnit(d, recs, time.Nanosecond), recs)

	if b.snapshot == nil {
		b.unmeasured("wal.snapshot_save.ms", "ms", "no backup was taken on this workload")
		b.unmeasured("wal.snapshot_load.ms", "ms", "no backup was taken on this workload")
		return nil
	}
	rev, payload, err := wal.DecodeSnapshot(b.snapshot)
	if err != nil {
		return err
	}
	snapDir := filepath.Join(dir, "snap")
	d, err = b.timed("wal.SaveSnapshot", func() error { return wal.SaveSnapshot(snapDir, rev, payload) })
	if err != nil {
		return err
	}
	b.res.layer("wal.snapshot_save.ms", "ms", float64(d)/1e6, len(payload))
	var loaded []byte
	d, err = b.timed("wal.LoadSnapshot", func() (err error) {
		_, loaded, err = wal.LoadSnapshot(snapDir)
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(loaded, payload) {
		return fmt.Errorf("loaded snapshot differs from the saved one")
	}
	b.res.layer("wal.snapshot_load.ms", "ms", float64(d)/1e6, len(payload))
	return nil
}

// replayOLAP folds the whole trace into an olap.IntCube, as the shard
// fold does, and answers the read mix's cube queries on the string
// cube the query path builds.
func (b *bench) replayOLAP(tr *fleetTrace) error {
	lineOf := map[string]string{}
	for _, l := range tr.topo.Lines {
		for _, m := range l.Machines {
			lineOf[m] = l.ID
		}
	}
	var dims [5]*intern.DynTable
	for i := range dims {
		dims[i] = intern.NewDyn(nil)
	}
	recs := tr.records(0, len(tr.recs))
	ic := olap.NewIntCube()
	facts := 0
	d, err := b.timed("olap.IntCube.AddFact", func() error {
		for _, r := range recs {
			if r.Env {
				continue
			}
			coord := olap.IntCoord{
				dims[0].Intern(lineOf[r.Machine]), dims[1].Intern(r.Machine), dims[2].Intern(r.Job),
				dims[3].Intern(r.Phase), dims[4].Intern(r.Sensor),
			}
			if err := ic.AddFact(coord, r.Value); err != nil {
				return err
			}
			facts++
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.res.layer("olap.add_fact.ns_per_record", "ns/rec", perUnit(d, facts, time.Nanosecond), facts)

	cube, err := olap.New(wire.CubeDims()...)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if !r.Env {
			if err := cube.AddFact([]string{lineOf[r.Machine], r.Machine, r.Job, r.Phase, r.Sensor}, r.Value); err != nil {
				return err
			}
		}
	}
	var queries []olap.Query
	for _, m := range tr.machines {
		where := map[string]string{"machine": m}
		queries = append(queries,
			olap.Query{Op: wire.CubeOpSlice, Where: where},
			olap.Query{Op: wire.CubeOpRollup, Keep: []string{"line", "sensor"}},
			olap.Query{Op: wire.CubeOpDrilldown, Dim: "phase", Where: where},
		)
	}
	const passes = 5
	d, err = b.timed("olap.Cube.Answer", func() error {
		for p := 0; p < passes; p++ {
			for _, q := range queries {
				if _, err := cube.Answer(q); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.res.layer("olap.answer.us_per_query", "us", perUnit(d, passes*len(queries), time.Microsecond), passes*len(queries))
	return nil
}

// replayCore runs Algorithm 1 from the phase level on every machine of
// the workload's plant, cold (fresh hierarchies) and warm (a shared
// core.PlantCache that has seen every machine once). core works on
// *plant.Plant, so the plant is rebuilt with plant.Simulate, the
// generator hod.Simulate wraps, from the same configuration.
func (b *bench) replayCore(tr *fleetTrace) error {
	sim := b.cfg.Sim
	p, err := plant.Simulate(plant.Config{
		Seed: sim.Seed, Lines: sim.Lines, MachinesPerLine: sim.MachinesPerLine,
		JobsPerMachine: sim.JobsPerMachine, PhaseSamples: sim.PhaseSamples,
		FaultRate: sim.FaultRate, MeasurementErrorRate: sim.MeasurementErrorRate,
	})
	if err != nil {
		return err
	}
	outliers := 0
	run := func(cache *core.PlantCache) error {
		for _, m := range tr.machines {
			var h *core.Hierarchy
			var err error
			if cache == nil {
				h, err = core.NewHierarchy(p, m)
			} else {
				h, err = core.NewHierarchyWithCache(p, m, cache)
			}
			if err != nil {
				return err
			}
			rep, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{})
			if err != nil {
				return err
			}
			outliers += len(rep.Outliers)
		}
		return nil
	}
	n := len(tr.machines)
	d, err := b.timed("core.FindHierarchicalOutliers.cold", func() error { return run(nil) })
	if err != nil {
		return err
	}
	b.res.layer("core.find_outliers.ms_per_machine", "ms", perUnit(d, n, time.Millisecond), n)
	b.res.layer("core.outliers_per_machine", "count", float64(outliers)/float64(n), n)
	cache := core.NewPlantCache(p)
	if err := run(cache); err != nil {
		return err
	}
	d, err = b.timed("core.FindHierarchicalOutliers.cached", func() error { return run(cache) })
	if err != nil {
		return err
	}
	b.res.layer("core.find_outliers.cached_ms_per_machine", "ms", perUnit(d, n, time.Millisecond), n)
	return nil
}

// replayGateway publishes what the server's fold publishes per batch of
// the workload's measured stream — a cube_delta and a stats event —
// through a gateway.Hub, first with no subscribers, then with three:
// one that keeps up and two that never read, whose queues coalesce.
func (b *bench) replayGateway(tr *fleetTrace) error {
	batches := len(tr.batches(0, tr.epochCount(), b.cfg.NDJSONBatch))
	publish := func(h *gateway.Hub, after func()) {
		for i := 0; i < batches; i++ {
			rev := uint64(i + 1)
			h.Publish(wire.Event{Kind: wire.EventCubeDelta, Plant: plantID, Revision: rev})
			h.Publish(wire.Event{Kind: wire.EventStats, Plant: plantID, Revision: rev, Stats: &wire.StatsResponse{Plant: plantID}})
			after()
		}
	}
	events := 2 * batches
	h := gateway.NewHub()
	d, _ := b.timed("gateway.Hub.Publish", func() error { publish(h, func() {}); return nil })
	h.Close()
	b.res.layer("gateway.publish.ns_per_event", "ns", perUnit(d, events, time.Nanosecond), events)

	h = gateway.NewHub()
	defer h.Close()
	chans := []wire.Channel{{Kind: wire.EventCubeDelta, Plant: plantID}, {Kind: wire.EventStats, Plant: plantID}}
	subs := []*gateway.Subscriber{h.Subscribe(chans, nil, 0), h.Subscribe(chans, nil, 0), h.Subscribe(chans, nil, 0)}
	drained := b.ctx
	d, _ = b.timed("gateway.Hub.Publish.subscribed", func() error {
		publish(h, func() {
			for k := 0; k < len(chans); k++ {
				subs[0].Next(drained)
			}
		})
		return nil
	})
	b.res.layer("gateway.publish_subscribed.ns_per_event", "ns", perUnit(d, events, time.Nanosecond), events)
	var coalesced uint64
	for _, s := range subs {
		c, _ := s.Stats()
		coalesced += c
		s.Close()
	}
	deliveries := events * len(subs)
	b.res.layer("gateway.coalesced_ratio", "ratio", float64(coalesced)/float64(deliveries), deliveries)
	return nil
}

// replayIntern resolves every record's identifiers through an
// intern.DynTable, as ingest does: Intern for job ids, ID for the rest.
func (b *bench) replayIntern(tr *fleetTrace) error {
	names := intern.NewDyn(tr.names)
	jobs := intern.NewDyn(nil)
	recs := tr.records(0, len(tr.recs))
	lookups := 0
	d, err := b.timed("intern.DynTable", func() error {
		for _, r := range recs {
			jobs.Intern(r.Job)
			for _, s := range [...]string{r.Machine, r.Phase, r.Sensor} {
				if _, ok := names.ID(s); !ok {
					return fmt.Errorf("%q not interned", s)
				}
			}
			lookups += 4
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.res.layer("intern.lookup.ns", "ns", perUnit(d, lookups, time.Nanosecond), lookups)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
