package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/pkg/hod/wire"
)

// runRestart is the restart workload. Set-up builds a data directory
// through public calls only: ingest the first part of the trace, Close
// (final snapshot), reopen, ingest the second part, Kill. That leaves a
// snapshot of fixed size plus a WAL tail of fixed size. Set-up runs
// cfg.RestartSetupReps times; every build must give the same drained
// report. Each measured repetition copies the pristine directory
// (untimed: recovery rewrites it), calls Open, requests the first full
// report and checks it byte for byte against the drained report, then
// resumes the stream with the held-back job epochs as NDJSON batches,
// closed loop but for the last epoch, which trickles in with reads
// after every drained batch, checks that the server holds the whole
// trace, and kills the server.
func runRestart(b *bench, tr *fleetTrace) error {
	// The cuts fall on job-epoch boundaries, so the stored data ends
	// with every job complete.
	kept := tr.epochCount() - b.cfg.ResumeEpochs
	first, err := b.encodeStream(tr, tr.batches(0, kept/2, b.cfg.BulkBatch), wire.EncodeBinary)
	if err != nil {
		return err
	}
	second, err := b.encodeStream(tr, tr.batches(kept/2, kept, b.cfg.BulkBatch), wire.EncodeBinary)
	if err != nil {
		return err
	}
	last := tr.epochCount() - 1
	resume, err := b.encodeStream(tr, tr.batches(kept, last, b.cfg.NDJSONBatch), wire.EncodeNDJSON)
	if err != nil {
		return err
	}
	tail, err := b.encodeStream(tr, tr.batches(last, last+1, b.cfg.NDJSONBatch), wire.EncodeNDJSON)
	if err != nil {
		return err
	}
	defer runtime.KeepAlive([]*stream{first, second, resume, tail})
	b.noteBodies(resume)
	stored := tr.epochs[kept]
	b.markHeapBase()

	var want []byte
	pristine := ""
	defer func() { os.RemoveAll(pristine) }()
	for i := 0; i < b.cfg.RestartSetupReps; i++ {
		dir, err := os.MkdirTemp(b.workdir, "pristine-")
		if err != nil {
			return err
		}
		id := b.tr.begin("setup", b.root)
		var rep []byte
		cs, err := measure(func() (err error) {
			rep, err = b.buildDataDir(dir, tr, first.bodies, second.bodies, stored, id)
			return err
		})
		b.setups = append(b.setups, cs)
		b.tr.end(id)
		if err != nil {
			return err
		}
		switch {
		case want == nil:
			want = rep
		case string(rep) != string(want):
			b.res.problem("set-up %d built a data dir whose drained report differs from set-up 0's", i)
		}
		if err := os.RemoveAll(pristine); err != nil {
			return err
		}
		pristine = dir
	}
	if err := b.noteDisk(pristine, stored); err != nil {
		return err
	}

	reg := beginRegion()
	defer func() { b.endRegion(reg, b.ingested) }()
	return b.rounds(3, func(i int) error {
		return b.recoverRep(pristine, want, func(n *node, c *conn) error {
			b.base = n.base
			if i == 0 {
				if err := b.backup(c); err != nil {
					return err
				}
			}
			if err := b.resume(c, resume, stored); err != nil {
				return err
			}
			b.noteHeap(1)
			if _, err := b.trickle(c, tr, tail, tr.epochs[last]); err != nil {
				return err
			}
			b.checkIngested(c, tr, len(tr.recs))
			return nil
		})
	})
}

// resume streams s closed loop into a recovered server that holds
// stored records, and waits until it has folded them. Recovery leaves
// garbage behind; it is collected first, so the stream is not timed
// against a collection the recovery caused.
func (b *bench) resume(c *conn, s *stream, stored int) error {
	runtime.GC()
	phase := b.tr.begin("phase.resume", b.root)
	defer b.tr.end(phase)
	sampler := b.startStatsSampler()
	defer sampler.stop()
	_, err := b.ingestBatches(c, s, "application/x-ndjson", phase, stored)
	return err
}

// buildDataDir ingests first, closes cleanly, reopens, ingests second,
// waits until stored records are folded, takes the full report (the
// drained twin's answer recovery must reproduce) and kills the server.
func (b *bench) buildDataDir(dir string, tr *fleetTrace, first, second [][]byte, stored, parent int) ([]byte, error) {
	n, c, err := b.openRegistered(dir, tr, time.Hour, parent)
	if err != nil {
		return nil, err
	}
	if err := b.sendAll(c, first); err != nil {
		c.close()
		n.kill()
		return nil, err
	}
	c.close()
	n.close()
	id := b.tr.begin("server.open", parent)
	n, err = startNode(b.serverOptions(dir, time.Hour))
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	defer n.kill()
	c = b.dial(n.base)
	defer c.close()
	if err := b.sendAll(c, second); err != nil {
		return nil, err
	}
	if err := c.WaitDrained(b.ctx, plantID, uint64(stored)); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return c.rawGet(b.ctx, n.base, fullReportPath())
}

// sendAll sends untimed set-up batches.
func (b *bench) sendAll(c *conn, bodies [][]byte) error {
	for i, body := range bodies {
		if _, err := c.IngestBody(b.ctx, plantID, wire.ContentTypeBinary, body); err != nil {
			return fmt.Errorf("set-up batch %d: %w", i, err)
		}
	}
	return nil
}
