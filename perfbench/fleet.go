package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

const plantID = "bench"

// fleetTrace is a workload's generated input: a simulated plant's
// samples in stream order plus the plant's registration and job
// metadata. Only hod.Simulate sees the seed. The samples are held
// pointer-free, so the garbage collector does not scan the trace while
// the server runs in the same process; wire records are materialised
// only to encode request bodies before a measured region and to check
// answers after it.
type fleetTrace struct {
	topo     wire.Topology
	metas    []wire.JobMeta
	machines []string
	recs     []packed
	names    []string // string table of packed ids; names[0] is ""
	// epochs[e] is the offset in recs of job epoch e; the last entry is
	// len(recs).
	epochs []int
}

// packed is one wire.Record with its strings replaced by ids into the
// trace's string table.
type packed struct {
	machine, job, phase, sensor int32
	t                           int32
	env                         bool
	value                       float64
}

// genTrace simulates the plant and orders its samples the way a live
// fleet streams them. The machines run their jobs side by side, so the
// stream is a sequence of job epochs: epoch e holds every machine's
// e-th job and the shop-floor climate samples of the same span. Within
// an epoch each source contributes interleave records in turn, keeping
// its own order.
func genTrace(sim hod.SimConfig) (*fleetTrace, error) {
	p, err := hod.Simulate(sim)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	tr := &fleetTrace{topo: p.Topology(plantID), metas: p.JobMetas(), machines: p.Machines(), names: []string{""}}
	ids := map[string]int32{"": 0}
	id := func(name string) int32 {
		v, ok := ids[name]
		if !ok {
			v = int32(len(tr.names))
			ids[name] = v
			tr.names = append(tr.names, name)
		}
		return v
	}
	pack := func(r wire.Record) packed {
		return packed{id(r.Machine), id(r.Job), id(r.Phase), id(r.Sensor), int32(r.T), r.Env, r.Value}
	}
	// sources[e] lists epoch e's sources: one per machine, then the
	// climate.
	var sources [][][]packed
	machine, job, epoch := "", "", -1
	for _, r := range p.Records() {
		switch {
		case r.Machine != machine:
			machine, job, epoch = r.Machine, r.Job, 0
		case r.Job != job:
			job, epoch = r.Job, epoch+1
		}
		for len(sources) <= epoch {
			sources = append(sources, nil)
		}
		m := len(sources[epoch]) - 1
		if m < 0 || tr.names[sources[epoch][m][0].machine] != r.Machine {
			sources[epoch] = append(sources[epoch], nil)
			m++
		}
		sources[epoch][m] = append(sources[epoch][m], pack(r))
	}
	env := p.EnvRecords()
	horizon := 0
	for _, r := range env {
		horizon = max(horizon, r.T+1)
	}
	envBy := make([][]packed, len(sources))
	for _, r := range env {
		e := r.T * len(sources) / horizon
		envBy[e] = append(envBy[e], pack(r))
	}
	for e, srcs := range sources {
		srcs = append(srcs, envBy[e])
		tr.epochs = append(tr.epochs, len(tr.recs))
		for off := 0; ; off += interleave {
			more := false
			for _, s := range srcs {
				if off < len(s) {
					tr.recs = append(tr.recs, s[off:min(off+interleave, len(s))]...)
					more = more || off+interleave < len(s)
				}
			}
			if !more {
				break
			}
		}
	}
	tr.epochs = append(tr.epochs, len(tr.recs))
	return tr, nil
}

// records materialises records [lo, hi) as wire records.
func (tr *fleetTrace) records(lo, hi int) []wire.Record {
	out := make([]wire.Record, hi-lo)
	for i, p := range tr.recs[lo:hi] {
		out[i] = wire.Record{
			Machine: tr.names[p.machine], Job: tr.names[p.job], Phase: tr.names[p.phase],
			Sensor: tr.names[p.sensor], T: int(p.t), Value: p.value, Env: p.env,
		}
	}
	return out
}

// epochCount is the number of job epochs in the trace.
func (tr *fleetTrace) epochCount() int { return len(tr.epochs) - 1 }

// batchSpan is one batch: records [lo, hi) of the trace.
type batchSpan struct{ lo, hi int }

func (s batchSpan) len() int { return s.hi - s.lo }

// batches cuts epochs [from, to) into batches of at most size records;
// no batch straddles two epochs.
func (tr *fleetTrace) batches(from, to, size int) []batchSpan {
	var out []batchSpan
	for e := from; e < to; e++ {
		for lo := tr.epochs[e]; lo < tr.epochs[e+1]; lo += size {
			out = append(out, batchSpan{lo, min(lo+size, tr.epochs[e+1])})
		}
	}
	return out
}

// stream is a run of batches with their pre-encoded request bodies.
type stream struct {
	batches []batchSpan
	bodies  [][]byte
}

// encodeStream encodes every batch up front, one wire.encode span each,
// so the measured region sends bytes and does no client-side encoding.
func (b *bench) encodeStream(tr *fleetTrace, batches []batchSpan, encode func([]wire.Record) ([]byte, error)) (*stream, error) {
	s := &stream{batches: batches, bodies: make([][]byte, len(batches))}
	for i, bs := range batches {
		b.encodedRecords += bs.len()
		recs := tr.records(bs.lo, bs.hi)
		id := b.tr.begin("wire.encode", b.root)
		body, err := encode(recs)
		b.tr.end(id)
		if err != nil {
			return nil, err
		}
		s.bodies[i] = body
	}
	return s, nil
}

// node is one in-process server reached over loopback HTTP.
type node struct {
	srv  *server.Server
	stop func()
	base string
}

// startNode builds a server, recovers its data dir when it has one,
// and serves it on a loopback port.
func startNode(opts server.Options) (*node, error) {
	srv := server.New(opts)
	if opts.DataDir != "" {
		if err := srv.Open(); err != nil {
			srv.Close()
			return nil, fmt.Errorf("open: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, stop: srv.ServeListener(ln), base: "http://" + ln.Addr().String()}, nil
}

// close shuts the listener and drains the server (final snapshot).
func (n *node) close() {
	n.stop()
	n.srv.Close()
}

// kill shuts the listener and abandons the server the way a crash does.
func (n *node) kill() {
	n.stop()
	n.srv.Kill()
}

// conn is an SDK client pinned to one keep-alive connection.
type conn struct {
	*hod.Client
	tr *http.Transport
}

func dial(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{Client: hod.NewClient(base, hod.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second})), tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// rawGet fetches a body without decoding it, for byte-identity checks.
func (c *conn) rawGet(ctx context.Context, base, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: c.tr}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

func fullReportPath() string {
	return "/v1/plants/" + url.PathEscape(plantID) + "/report?level=1&top=512"
}

// register registers the plant and uploads its job metadata.
func register(ctx context.Context, c *conn, tr *fleetTrace) error {
	if _, err := c.Register(ctx, tr.topo); err != nil && !errors.Is(err, hod.ErrAlreadyRegistered) {
		return fmt.Errorf("register: %w", err)
	}
	if _, err := c.Jobs(ctx, plantID, tr.metas); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
