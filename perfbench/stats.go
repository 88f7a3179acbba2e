package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/pkg/hod/wire"
)

// statsSample is what the benchmark learns from /stats: the deepest
// shard queue seen while load ran, and the last counters.
type statsSample struct {
	mu       sync.Mutex
	n        int
	maxQueue int
	last     wire.StatsResponse
}

func (s *statsSample) note(st wire.StatsResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.last = st
	for _, d := range st.QueueDepths {
		s.maxQueue = max(s.maxQueue, d)
	}
}

// sampler polls /stats on its own connection at 10 Hz. It runs only in
// the traced pass, so the untraced pass keeps to the load connections.
type sampler struct {
	stopCh chan struct{}
	done   chan struct{}
}

func (b *bench) startStatsSampler() *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	if b.tr == nil {
		close(s.done)
		return s
	}
	c := dial(b.base)
	go func() {
		defer close(s.done)
		defer c.close()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
			if st, err := c.Stats(b.ctx, plantID); err == nil {
				b.stats.note(st)
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it to exit.
func (s *sampler) stop() {
	close(s.stopCh)
	<-s.done
}

// backup times GET /backup (snapshot capture plus encode) once, in the
// traced pass, and keeps the bytes for the WAL snapshot replay.
func (b *bench) backup(c *conn) error {
	if b.tr == nil {
		return nil
	}
	var data []byte
	d, err := b.call("backup", b.root, func() (err error) {
		data, err = c.Backup(b.ctx, plantID)
		return err
	})
	if err != nil {
		return err
	}
	b.snapshot = data
	b.res.layer("server.backup.ms", "ms", float64(d.wall)/1e6, 1)
	b.res.layer("server.backup.bytes", "B", float64(len(data)), 1)
	return nil
}

// noteBodies counts the request bytes of a measured stream.
func (b *bench) noteBodies(s *stream) {
	for i, body := range s.bodies {
		b.bodyBytes += len(body)
		b.bodyRecords += s.batches[i].len()
	}
}

// region marks the start of a measured region: wall clock, process CPU
// time and the runtime's allocation and GC counters.
type region struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

// runtimeTally sums the runtime's counters over the measured regions.
type runtimeTally struct {
	wall, cpu    time.Duration
	alloc, pause uint64
	cycles, recs int
}

// beginRegion collects garbage first, so every region starts from the
// same heap.
func beginRegion() region {
	runtime.GC()
	r := region{start: time.Now(), cpu: processCPU()}
	runtime.ReadMemStats(&r.ms)
	return r
}

// endRegion adds the region's runtime counters to the pass.
func (b *bench) endRegion(r region, records int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.run.wall += time.Since(r.start)
	b.run.cpu += processCPU() - r.cpu
	b.run.alloc += ms.TotalAlloc - r.ms.TotalAlloc
	b.run.pause += ms.PauseTotalNs - r.ms.PauseTotalNs
	b.run.cycles += int(ms.NumGC - r.ms.NumGC)
	b.run.recs += records
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
