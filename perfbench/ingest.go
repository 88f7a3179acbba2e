package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/pkg/hod/wire"
)

// runIngestNDJSON is the ingest-ndjson workload. Each round streams all
// but the last cfg.TrickleEpochs job epochs as NDJSON batches, closed
// loop on one connection, into a fresh durable server whose short
// snapshot interval puts several captures inside the measured region;
// no reads are sent while it ingests. Then the last epochs trickle in
// with reads after every batch, and a clean Close and timed recoveries
// of the closed data dir give the remaining end-to-end metrics.
func runIngestNDJSON(b *bench, tr *fleetTrace) error {
	split := tr.epochCount() - b.cfg.TrickleEpochs
	s, err := b.encodeStream(tr, tr.batches(0, split, b.cfg.NDJSONBatch), wire.EncodeNDJSON)
	if err != nil {
		return err
	}
	tail, err := b.encodeStream(tr, tr.batches(split, tr.epochCount(), b.cfg.NDJSONBatch), wire.EncodeNDJSON)
	if err != nil {
		return err
	}
	defer runtime.KeepAlive([]*stream{s, tail}) // the trace stays live across the heap readings
	b.noteBodies(s)
	return b.rounds(10, func(i int) error {
		b.markHeapBase()
		n, c, dir, err := b.setupNode(tr, b.cfg.SnapshotInterval)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		closed := false
		defer func() {
			c.close()
			if !closed {
				n.kill()
			}
		}()
		sent, err := b.ingestClosedLoop(c, s, "application/x-ndjson")
		if err != nil {
			return err
		}
		b.noteHeap(5)
		more, err := b.trickle(c, tr, tail, sent)
		if err != nil {
			return err
		}
		sent += more
		if err := c.WaitDrained(b.ctx, plantID, uint64(sent)); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		b.checkIngested(c, tr, sent)
		if i == 0 {
			if err := b.backup(c); err != nil {
				return err
			}
		}
		c.close()
		n.close()
		closed = true
		if err := b.noteDisk(dir, sent); err != nil {
			return err
		}
		for r := 0; r < b.cfg.RecoverReps; r++ {
			if err := b.recoverRep(dir, nil, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// ingestClosedLoop sends the stream's batches one after another on one
// connection, then waits until the server has folded everything. It
// returns how many records were sent.
func (b *bench) ingestClosedLoop(c *conn, s *stream, contentType string) (int, error) {
	phase := b.tr.begin("phase.ingest", b.root)
	defer b.tr.end(phase)
	sampler := b.startStatsSampler()
	defer sampler.stop()
	reg := beginRegion()
	sent, err := b.ingestBatches(c, s, contentType, phase, 0)
	if err != nil {
		return sent, err
	}
	b.endRegion(reg, sent)
	return sent, nil
}

// ingestBatches sends the stream's batches one after another into a
// server that holds stored records, waits until it has folded them,
// and adds the stretch to the measured ingest.
func (b *bench) ingestBatches(c *conn, s *stream, contentType string, phase, stored int) (int, error) {
	c0, t0 := processCPU(), time.Now()
	sent := 0
	var lastAck time.Time
	for i, body := range s.bodies {
		cs, err := b.call("ingest", phase, func() error {
			_, err := c.IngestBody(b.ctx, plantID, contentType, body)
			return err
		})
		lastAck = time.Now()
		if err != nil {
			return sent, fmt.Errorf("ingest batch %d: %w", i, err)
		}
		b.lat.add("ingest", cs.wall)
		sent += s.batches[i].len()
	}
	if err := b.drain(c, phase, stored+sent, lastAck); err != nil {
		return sent, err
	}
	b.ingested += sent
	b.ingestWall += time.Since(t0)
	b.ingestCPU += processCPU() - c0
	return sent, nil
}

// drain waits until the server has folded records samples and notes
// how long that took after the last acknowledgement.
func (b *bench) drain(c *conn, parent, records int, lastAck time.Time) error {
	_, err := b.call("drain", parent, func() error {
		return c.WaitDrained(b.ctx, plantID, uint64(records))
	})
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	b.drainWaits = append(b.drainWaits, float64(time.Since(lastAck))/1e6)
	return nil
}
